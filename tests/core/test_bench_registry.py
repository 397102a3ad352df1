"""The ``repro bench`` registry: its names, its timer, and checks that fire.

Each registry check is fed a well-formed result (it must pass) and then
one deliberately wrong result (it must raise), so a check that silently
stopped checking shows up here instead of in a green bench run.
"""

from __future__ import annotations

import time
import tracemalloc
from types import SimpleNamespace as NS

import numpy as np
import pytest

from repro.core import bench
from repro.core.bench import BENCHES, Run

#: The entries ``repro bench`` writes.
TRACKED_NAMES = {
    "building_dataset_generate",
    "dcta_system_build",
    "crl_train_4cluster_jobs1",
    "crl_train_stacked",
    "crl_train_unstacked",
    "dqn_train_step_x200",
    "dqn_train_episode_x10",
    "dqn_solve_greedy_x20",
    "env_random_rollout_x50",
    "rollout_serial_x32",
    "rollout_batch_x32",
    "loo_importance_jobs1",
    "shapley_importance_jobs1",
    "edgesim_epoch_run",
    "edgesim_epoch_run_failures",
    "edgesim_fleet_10k",
    "edgesim_fleet_100k",
    "edgesim_fleet_1m",
    "plan_10x_uncached",
    "plan_10x_cold_cache",
    "plan_10x_warm_cache",
    "serve_replay_cold",
    "serve_replay_warm",
    "serve_sustained_load_warm",
    "serve_saturation_shed",
}


def _bench(name: str) -> bench.Bench:
    (match,) = [entry for entry in BENCHES if name in entry.names]
    return match


def _runs(last: dict, means: dict | None = None) -> dict[str, Run]:
    means = means or {}
    return {
        name: Run(mean_s=means.get(name, 1.0), std_s=0.01, rounds=3, last=value)
        for name, value in last.items()
    }


def _agent(value: float):
    return NS(
        online=NS(_flat_params=np.full(3, value)),
        target=NS(_flat_params=np.zeros(3)),
        epsilon=0.1,
        _steps=7,
    )


def _epoch(pt: float, *, tasks: int = 5, gate: bool = True):
    return NS(gate_crossed=gate, processing_time=pt, tasks_executed=tasks)


def _plans(*assignments):
    return lambda: [tuple(assignments)]


PLANS = [((0, 1), (1, 2))] * 10

#: A well-formed result set per bench, keyed by one of its entry names.
GOOD = {
    "building_dataset_generate": {
        "building_dataset_generate": NS(n_tasks=4, days=np.arange(20)),
    },
    "dcta_system_build": {
        "dcta_system_build": NS(allocators=dict.fromkeys(["RM", "DML", "CRL", "DCTA"])),
    },
    "crl_train_4cluster_jobs1": {
        "crl_train_4cluster_jobs1": (_plans((0, 1)), 0),
    },
    "crl_train_stacked": {
        "crl_train_stacked": [_agent(1.0)],
        "crl_train_unstacked": [_agent(1.0)],
    },
    "rollout_batch_x32": {
        "rollout_serial_x32": [NS(as_assignment=lambda: {0: 1})],
        "rollout_batch_x32": [NS(as_assignment=lambda: {0: 1})],
    },
    "dqn_train_step_x200": {
        "dqn_train_step_x200": 0.5,
        "dqn_train_episode_x10": [1.0] * 10,
        "dqn_solve_greedy_x20": [NS(matrix=np.eye(2))] * 20,
        "env_random_rollout_x50": 120,
    },
    "loo_importance_jobs1": {
        "loo_importance_jobs1": np.zeros((bench.IMPORTANCE_DAYS, 5)),
        "shapley_importance_jobs1": np.zeros(5),
    },
    "edgesim_epoch_run": {
        "edgesim_epoch_run": _epoch(10.0),
        "edgesim_epoch_run_failures": _epoch(12.0),
        "edgesim_epoch_run_failures@repeat": _epoch(12.0),
    },
    "edgesim_fleet_10k": {
        "edgesim_fleet_10k": NS(completed=5),
        "edgesim_fleet_100k": NS(completed=50),
        "edgesim_fleet_1m": NS(completed=500, n_nodes=1_000_000),
    },
    "plan_10x_warm_cache": {
        "plan_10x_uncached": (PLANS, 10.0, None),
        "plan_10x_cold_cache": (PLANS, 1.0, 0.9),
        "plan_10x_warm_cache": (PLANS, 0.0, 0.99),
    },
    "serve_replay_cold": {
        "serve_replay_cold": NS(identities=lambda: [(0, "ok", (1, 2))]),
        "serve_replay_warm": NS(identities=lambda: [(0, "ok", (1, 2))]),
    },
    "serve_saturation_shed": {
        "serve_saturation_shed": NS(
            rejected=3, summary={"max_queue_depth": bench.SATURATION_QUEUE_DEPTH}
        ),
    },
}

#: (bench key, variant, wrong last result) — each must make the check raise.
WRONG = [
    ("building_dataset_generate", "building_dataset_generate", NS(n_tasks=4, days=np.arange(19))),
    ("building_dataset_generate", "building_dataset_generate", NS(n_tasks=0, days=np.arange(20))),
    ("dcta_system_build", "dcta_system_build", NS(allocators={"RM": 0, "DML": 0, "CRL": 0})),
    ("crl_train_4cluster_jobs1", "crl_train_4cluster_jobs1", (_plans((0, 1)), 1)),
    ("crl_train_4cluster_jobs1", "crl_train_4cluster_jobs1", (lambda: [], 0)),
    ("crl_train_stacked", "crl_train_unstacked", [_agent(2.0)]),
    ("rollout_batch_x32", "rollout_batch_x32", [NS(as_assignment=lambda: {0: 2})]),
    ("dqn_train_step_x200", "dqn_train_step_x200", float("nan")),
    ("dqn_train_step_x200", "dqn_train_episode_x10", [1.0] * 9),
    ("dqn_train_step_x200", "dqn_train_episode_x10", [1.0] * 9 + [float("inf")]),
    (
        "dqn_train_step_x200",
        "dqn_solve_greedy_x20",
        [NS(matrix=np.eye(2))] * 19 + [NS(matrix=np.ones((2, 2)))],
    ),
    ("dqn_train_step_x200", "env_random_rollout_x50", 0),
    ("loo_importance_jobs1", "loo_importance_jobs1", np.zeros((bench.IMPORTANCE_DAYS - 1, 5))),
    ("edgesim_epoch_run", "edgesim_epoch_run_failures", _epoch(9.0)),
    ("edgesim_epoch_run", "edgesim_epoch_run_failures@repeat", _epoch(12.5)),
    ("edgesim_epoch_run", "edgesim_epoch_run", _epoch(10.0, gate=False)),
    ("edgesim_fleet_10k", "edgesim_fleet_100k", NS(completed=0)),
    ("edgesim_fleet_10k", "edgesim_fleet_1m", NS(completed=500, n_nodes=999_999)),
    ("edgesim_fleet_10k", "edgesim_fleet_1m", NS(completed=0, n_nodes=1_000_000)),
    ("plan_10x_warm_cache", "plan_10x_warm_cache", (PLANS, 1.0, 0.99)),
    ("plan_10x_warm_cache", "plan_10x_cold_cache", (PLANS[:9] + [((0, 2),)], 1.0, 0.9)),
    ("plan_10x_warm_cache", "plan_10x_uncached", (PLANS, 9.0, None)),
    ("plan_10x_warm_cache", "plan_10x_cold_cache", (PLANS, 3.0, 0.9)),
    ("plan_10x_warm_cache", "plan_10x_cold_cache", (PLANS, 1.0, 0.4)),
    ("serve_replay_cold", "serve_replay_cold", NS(identities=lambda: [(0, "ok", (1, 3))])),
    (
        "serve_saturation_shed",
        "serve_saturation_shed",
        NS(rejected=0, summary={"max_queue_depth": 4}),
    ),
    (
        "serve_saturation_shed",
        "serve_saturation_shed",
        NS(rejected=3, summary={"max_queue_depth": bench.SATURATION_QUEUE_DEPTH + 1}),
    ),
]


def test_entry_names_are_unique_and_match_the_tracked_set():
    names = [name for entry in BENCHES for name in entry.names]
    assert len(names) == len(set(names))
    assert set(names) == TRACKED_NAMES


def test_every_bench_has_a_result_fixture():
    assert {id(_bench(key)) for key in GOOD} == {id(entry) for entry in BENCHES}


@pytest.mark.parametrize("key", sorted(GOOD))
def test_check_passes_a_good_result(key):
    _bench(key).check(_runs(GOOD[key]))


@pytest.mark.parametrize(
    "key, name, wrong", WRONG, ids=[f"{name}-{i}" for i, (_, name, _) in enumerate(WRONG)]
)
def test_check_raises_on_a_wrong_result(key, name, wrong):
    assert name in GOOD[key]
    with pytest.raises(AssertionError):
        _bench(key).check(_runs({**GOOD[key], name: wrong}))


def test_timer_interleaves_and_runs_written_variants_to_the_minimum(monkeypatch):
    monkeypatch.setattr(bench, "MIN_TIMED_S", 0.02)
    calls = []

    def variant(name):
        def call():
            calls.append(name)
            time.sleep(0.002)
            return name

        return call

    runs = bench.time_variants({"a": variant("a"), "a@ref": variant("a@ref")}, 3, ("a",))
    assert calls[:4] == ["a", "a@ref", "a", "a@ref"]
    assert runs["a@ref"].rounds == 3
    assert runs["a"].rounds > 3
    assert runs["a"].mean_s * runs["a"].rounds >= 0.02
    assert runs["a"].last == "a" and runs["a"].std_s > 0


def test_peak_alloc_counts_numpy_buffers_and_stops_tracing():
    peak = bench.peak_alloc_mib(lambda: np.ones(1 << 20))  # 8 MiB of float64
    assert 8.0 <= peak < 9.0
    assert not tracemalloc.is_tracing()
