"""``run_fleet_sharded`` is a shim over the one fleet engine.

perfbench's ``Fleet`` workload calls it with ``shards=NPROC`` and
``force=True``; both are ignored, so the answer is the plain engine's
and no worker process starts.
"""

from __future__ import annotations

from repro.edgesim.fleet import FleetConfig, FleetSimulator, result_digest
from repro.edgesim.shard import run_fleet_sharded
from repro.parallel import get_worker_pool


def test_shim_runs_the_plain_engine_in_process(child_pids):
    config = FleetConfig(
        n_nodes=2000, n_regions=16, duration_s=10.0, churn_rate_hz=1.0, seed=4
    )
    spinups = get_worker_pool().spinups
    children = child_pids()

    run = run_fleet_sharded(config, shards=2, force=True)

    assert result_digest(run.result) == result_digest(FleetSimulator(config).run())
    assert run.barrier_crossings == 0
    assert get_worker_pool().spinups == spinups
    assert child_pids() <= children
