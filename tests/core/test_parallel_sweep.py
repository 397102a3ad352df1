"""Fig. 9 fan-out: per-point allocator rebuilds in workers match serial.

RM/DML are fully deterministic, so their columns must be byte-identical
across jobs. CRL/DCTA intentionally fold the *measured* controller
latency (``allocation_time``) into PT — the paper's PT includes the
allocation decision itself — so their columns carry ~microsecond
wall-clock jitter even between two serial runs; parity for them is
``allclose`` at a tolerance far above that jitter and far below any
real allocation difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import PTExperiment
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.parallel import shutdown_worker_pool
from repro.telemetry import MetricsRegistry, use_registry

POINTS = (2, 4)
DETERMINISTIC = ("RM", "DML")
JITTERED = ("CRL", "DCTA")


@pytest.fixture(scope="module")
def sweep_runs():
    """The sweep at jobs=1 and at jobs=4, with the jobs=4 run's metrics."""
    scenario = SyntheticScenario(
        ScenarioConfig(n_tasks=16, n_regimes=3, n_history=6, n_eval=2, seed=5)
    )

    def run(jobs):
        experiment = PTExperiment(scenario, crl_episodes=10, jobs=jobs, seed=0)
        return experiment.sweep_processors(POINTS)

    serial = run(1)
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            parallel = run(4)
    finally:
        shutdown_worker_pool()
    return serial, parallel, registry


@pytest.fixture(scope="module")
def sweep_pair(sweep_runs):
    serial, parallel, _ = sweep_runs
    return serial, parallel


class TestSweepParity:
    def test_same_methods_and_shape(self, sweep_pair):
        serial, parallel = sweep_pair
        assert set(serial.times) == set(parallel.times)
        assert serial.sweep_values == parallel.sweep_values == POINTS

    def test_deterministic_methods_byte_identical(self, sweep_pair):
        serial, parallel = sweep_pair
        for method in DETERMINISTIC:
            assert serial.times[method] == parallel.times[method], method

    def test_learned_methods_match_within_clock_jitter(self, sweep_pair):
        serial, parallel = sweep_pair
        for method in JITTERED:
            assert np.allclose(
                serial.times[method], parallel.times[method], rtol=1e-3
            ), method

    def test_solve_counts_identical(self, sweep_pair):
        serial, parallel = sweep_pair
        assert serial.solve_counts == parallel.solve_counts

    def test_plan_seconds_populated_per_point(self, sweep_pair):
        _serial, parallel = sweep_pair
        for method, seconds in parallel.plan_seconds.items():
            assert len(seconds) == len(POINTS), method
            assert all(s >= 0.0 for s in seconds)


def test_points_fan_out_over_worker_processes(sweep_runs):
    """jobs=4 runs every point in a worker (two workers for two points)."""
    *_, registry = sweep_runs
    tasks = {
        key: child.value
        for family in registry.families()
        if family.name == "repro_parallel_tasks_total"
        for key, child in family.children.items()
    }
    assert tasks == {(("label", "sweep.processors"),): len(POINTS)}
