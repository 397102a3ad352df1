"""Perf: the discrete-event simulator — clean runs and failure re-dispatch.

Tracks one epoch simulated with a DCTA plan and the same epoch with a
third of the nodes failing mid-run (which exercises the controller's
re-dispatch path). The correctness assertions — gate crossed, PT finite
and no faster once nodes fail — always run; only the timing entries
depend on benchmarking being enabled.
"""

from __future__ import annotations

import pytest

from repro.allocation.base import EpochContext
from repro.core.experiment import build_allocators
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.edgesim.simulator import EdgeSimulator
from repro.edgesim.testbed import scaled_testbed


@pytest.fixture(scope="module")
def edgesim_setup():
    scenario = SyntheticScenario(
        ScenarioConfig(
            n_tasks=24,
            n_regimes=4,
            n_history=16,
            n_eval=3,
            fluctuation_sigma=0.7,
            seed=0,
        )
    )
    nodes, network = scaled_testbed(6)
    dcta = build_allocators(scenario, nodes, crl_episodes=10, crl_clusters=3, seed=0)[
        "DCTA"
    ]
    epoch = scenario.eval_epochs[0]
    workload = scenario.workload_for(epoch)
    context = EpochContext(sensing=epoch.sensing, features=epoch.features, day=epoch.day)
    plan = dcta.plan(workload, nodes, context)
    return EdgeSimulator(nodes, network), workload, plan, nodes


def test_perf_edgesim_run(track, edgesim_setup):
    simulator, workload, plan, _nodes = edgesim_setup
    result = track("edgesim_epoch_run", lambda: simulator.run(workload, plan))
    assert result.gate_crossed
    assert result.processing_time > 0
    assert result.tasks_executed > 0


def test_perf_edgesim_run_with_failures(track, edgesim_setup):
    simulator, workload, plan, nodes = edgesim_setup
    clean = simulator.run(workload, plan)
    failures = {node.node_id: 5.0 for node in list(nodes)[::3]}
    result = track(
        "edgesim_epoch_run_failures",
        lambda: simulator.run(workload, plan, failures=failures),
    )
    assert result.gate_crossed
    # Losing nodes mid-run forces re-transfers; the epoch cannot finish
    # faster than the failure-free run of the identical plan.
    assert result.processing_time >= clean.processing_time
    # Determinism: the DES is seedless and event-ordered, so repeat runs
    # are byte-identical.
    repeat = simulator.run(workload, plan, failures=failures)
    assert repeat.processing_time == result.processing_time
    assert repeat.tasks_executed == result.tasks_executed


def test_perf_fleet_open_loop_1k(track):
    """Open-loop fleet run at 1k nodes; deterministic across repeats."""
    from repro.edgesim.fleet import FleetConfig, FleetSimulator

    config = FleetConfig(n_nodes=1000, n_regions=8, duration_s=10.0, seed=0)

    def run():
        return FleetSimulator(config).run()

    result = track("edgesim_fleet_1k", run)
    assert result.completed > 0
    assert result.dropped == 0
    repeat = FleetSimulator(config).run()
    assert repeat.completed == result.completed
    assert repeat.events == result.events
    assert repeat.latency_p99_s == result.latency_p99_s
