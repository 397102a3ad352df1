"""Capacity planning: invert the processing-time experiments.

Figures 9-11 answer "what PT does a given testbed deliver?"; a deployment
engineer asks the inverse: "how many devices / how much bandwidth do I
need to hit a PT target?" These helpers answer by sweeping or bisecting
the simulator with any allocator (defaults to the oracle, giving the
*capability* of the hardware; pass a trained DCTA for the achievable
figure).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.allocation.base import Allocator, EpochContext
from repro.allocation.oracle import OracleAllocator
from repro.core.scenario import SyntheticScenario
from repro.edgesim.simulator import EdgeSimulator
from repro.edgesim.testbed import scaled_testbed
from repro.errors import ConfigurationError, DataError


def _mean_pt(
    scenario: SyntheticScenario,
    allocator: Allocator,
    n_processors: int,
    bandwidth_mbps: float,
    quality_threshold: float,
) -> float:
    nodes, network = scaled_testbed(n_processors, bandwidth_mbps=bandwidth_mbps)
    simulator = EdgeSimulator(nodes, network, quality_threshold=quality_threshold)
    times = []
    for epoch in scenario.eval_epochs:
        workload = scenario.workload_for(epoch)
        context = EpochContext(sensing=epoch.sensing, features=epoch.features)
        plan = allocator.plan(workload, nodes, context)
        times.append(simulator.run(workload, plan).processing_time)
    return float(np.mean(times))


def processors_needed(
    scenario: SyntheticScenario,
    target_pt_s: float,
    *,
    allocator: Allocator | None = None,
    bandwidth_mbps: float = 50.0,
    quality_threshold: float = 0.9,
    max_processors: int = 10,
) -> int | None:
    """Smallest device count meeting the PT target, or None if unreachable.

    PT is not strictly monotone in device count (placement effects), so the
    scan checks every size rather than bisecting.
    """
    if target_pt_s <= 0:
        raise ConfigurationError(f"target_pt_s must be > 0, got {target_pt_s}")
    if not 1 <= max_processors <= 10:
        raise ConfigurationError(f"max_processors must be in [1, 10], got {max_processors}")
    policy = allocator if allocator is not None else OracleAllocator()
    for count in range(1, max_processors + 1):
        if _mean_pt(scenario, policy, count, bandwidth_mbps, quality_threshold) <= target_pt_s:
            return count
    return None


def bandwidth_needed(
    scenario: SyntheticScenario,
    target_pt_s: float,
    *,
    allocator: Allocator | None = None,
    n_processors: int = 10,
    quality_threshold: float = 0.9,
    low_mbps: float = 1.0,
    high_mbps: float = 1000.0,
    tolerance_mbps: float = 1.0,
) -> float | None:
    """Minimum bandwidth meeting the PT target, by bisection.

    PT is monotone non-increasing in bandwidth (transfers only get
    faster), so bisection is sound. Returns None when even ``high_mbps``
    misses the target (compute-bound regime).
    """
    if target_pt_s <= 0:
        raise ConfigurationError(f"target_pt_s must be > 0, got {target_pt_s}")
    if not 0 < low_mbps < high_mbps:
        raise ConfigurationError("need 0 < low_mbps < high_mbps")
    if tolerance_mbps <= 0:
        raise ConfigurationError(f"tolerance_mbps must be > 0, got {tolerance_mbps}")
    policy = allocator if allocator is not None else OracleAllocator()

    def meets(bandwidth: float) -> bool:
        return (
            _mean_pt(scenario, policy, n_processors, bandwidth, quality_threshold)
            <= target_pt_s
        )

    if not meets(high_mbps):
        return None
    if meets(low_mbps):
        return float(low_mbps)
    low, high = low_mbps, high_mbps
    while high - low > tolerance_mbps:
        mid = (low + high) / 2.0
        if meets(mid):
            high = mid
        else:
            low = mid
    return float(high)


def capacity_table(
    scenario: SyntheticScenario,
    targets_s: Sequence[float],
    *,
    allocator: Allocator | None = None,
) -> list[tuple[float, int | None, float | None]]:
    """(target PT, processors needed at 50 Mbps, bandwidth needed at 10 devices)."""
    if not targets_s:
        raise DataError("targets_s must not be empty")
    rows = []
    for target in targets_s:
        rows.append(
            (
                float(target),
                processors_needed(scenario, target, allocator=allocator),
                bandwidth_needed(scenario, target, allocator=allocator),
            )
        )
    return rows
