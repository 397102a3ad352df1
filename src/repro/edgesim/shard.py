"""Compatibility shim for perfbench's ``Fleet`` workload.

The region-sharded fleet runner is gone: :class:`FleetSimulator` is the
one fleet engine. ``perfbench/workloads.py`` still imports
:func:`run_fleet_sharded` and :func:`result_digest` from here and reads
``.result`` and ``.barrier_crossings``, so this module keeps that
surface over ``FleetSimulator(config).run()`` until the workload calls
the engine directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgesim.fleet import FleetConfig, FleetResult, FleetSimulator, result_digest

__all__ = ["ShardedRun", "result_digest", "run_fleet_sharded"]


@dataclass(frozen=True)
class ShardedRun:
    """A fleet run in the shape perfbench reads."""

    result: FleetResult
    barrier_crossings: int = 0


def run_fleet_sharded(
    config: FleetConfig, *, shards: int | None = None, force: bool = False
) -> ShardedRun:
    """``FleetSimulator(config).run()``; ``shards`` and ``force`` are ignored."""
    return ShardedRun(FleetSimulator(config).run())
