"""Tracked performance benchmarks behind ``repro bench``.

Every ``BENCH_perf.json`` entry is defined once, in :data:`BENCHES`: a
:class:`Bench` names the entries it writes, sets up their workload and
checks the results (raising :class:`AssertionError`) before anything is
recorded. Each entry holds ``mean_s``, ``std_s``, ``rounds``, the
``commit`` and python/numpy stamps, plus informational extras
(``throughput_rps``, ``events_per_sec``, ``peak_alloc_mib``, ...) that
the regression gate ignores.

Timing rule: one timer interleaves a bench's variants (A B A B, not
A A B B), so clock drift does not bias whichever runs later. Every
variant runs at least ``rounds`` rounds; a written one keeps running
until its rounds add up to :data:`MIN_TIMED_S`. A variant the bench
does not write (``<entry>@<what>``) is a reference for the check.

Memory rule: a bench with ``memory=True`` calls each written variant
once more, untimed, under :mod:`tracemalloc` (~5x slower) and records
the peak as ``peak_alloc_mib``: this process's Python and numpy
allocations, not its worker processes'.

:func:`check_regressions` is the gate behind ``repro bench --check``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
import tracemalloc
from pathlib import Path
from typing import Callable, ContextManager

import numpy as np

from repro.allocation.base import EpochContext, tatim_from_workload
from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.core.dcta_system import DCTASystem, DCTASystemConfig
from repro.core.experiment import build_allocators
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.edgesim.fleet import FleetConfig, FleetSimulator
from repro.edgesim.simulator import EdgeSimulator
from repro.edgesim.testbed import scaled_testbed
from repro.importance.importance import ImportanceEvaluator
from repro.importance.shapley import ShapleyImportanceEvaluator
from repro.parallel import get_worker_pool, shutdown_worker_pool
from repro.rl.crl import AgentTrainTask, train_allocation_agent, train_allocation_agents_stacked
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv, BatchedAllocationEnv
from repro.serve import Dispatcher, ServeConfig, generate_trace
from repro.serve import dispatcher as dispatcher_module
from repro.tatim.cache import AllocationCache, use_allocation_cache
from repro.tatim.generators import random_instance
from repro.telemetry import MetricsRegistry, get_registry, telemetry_enabled, use_registry
from repro.transfer.registry import make_strategy
from repro.utils.rng import derive_seeds

#: Default output path, relative to the current working directory.
DEFAULT_BENCH_PATH = "BENCH_perf.json"

#: Minimum summed time of a written variant's rounds. 0.5 s lifts the
#: 0.01-0.03 s entries (fleet 10k, DQN greedy solves, importance) from
#: three samples to 15-50 without stretching the whole run past a minute.
MIN_TIMED_S = 0.5


def bench_commit() -> str:
    """Short git commit hash (``-dirty`` if the tree has uncommitted
    changes), or ``"unknown"`` outside a checkout."""
    try:
        return (
            subprocess.run(
                ["git", "describe", "--always", "--dirty", "--abbrev=7"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record(
    results: dict,
    name: str,
    mean_s: float,
    rounds: int,
    *,
    std_s: float = 0.0,
    commit: str | None = None,
    extra: dict | None = None,
) -> None:
    """Append one bench entry in the ``BENCH_perf.json`` schema.

    ``extra`` merges additional keys (serving KPIs: ``throughput_rps``,
    ``latency_p95_ms``, ``rejected``, ...) into the entry; the regression
    gate only reads ``mean_s``/``std_s``, so extras are informational.

    Every entry is stamped with the interpreter and numpy versions it was
    measured under: numpy upgrades routinely move kernel-bound means by
    more than the gate's threshold, so :func:`baseline_warnings` can flag
    a stale-runtime baseline instead of letting the gate misfire.
    """
    entry = {
        "mean_s": float(mean_s),
        "std_s": float(std_s),
        "rounds": int(rounds),
        "commit": commit if commit is not None else bench_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if extra:
        entry.update(extra)
    results[name] = entry


def write_bench_json(results: dict, path=DEFAULT_BENCH_PATH) -> None:
    """Write ``results`` to ``path``, replacing the file: one run, one file."""
    Path(path).write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


#: Entry keys every bench carries; anything else is an informational
#: extra (serving KPIs, events/sec, peak allocation, ...) surfaced by
#: :func:`bench_table` rather than living only in ``BENCH_perf.json``.
_CORE_ENTRY_KEYS = frozenset({"mean_s", "std_s", "rounds", "commit", "python", "numpy"})


def bench_table(results: dict) -> str:
    from repro.utils.reporting import format_table

    rows = []
    for name, entry in sorted(results.items()):
        extras = ", ".join(
            f"{key}={entry[key]}" for key in entry if key not in _CORE_ENTRY_KEYS
        )
        rows.append(
            [
                name,
                entry["mean_s"],
                entry.get("std_s", 0.0),
                entry["rounds"],
                entry["commit"],
                extras or "-",
            ]
        )
    return format_table(
        ["bench", "mean_s", "std_s", "rounds", "commit", "extras"],
        rows,
        title="repro bench",
    )


# ----------------------------------------------------------------------
# Regression gate

#: Default allowed current/baseline mean ratio before a bench fails.
DEFAULT_THRESHOLD = 1.25

#: Per-bench overrides for benches whose absolute times are so small that
#: scheduler jitter regularly exceeds the default relative threshold.
PER_BENCH_THRESHOLD = {
    "building_dataset_generate": 1.6,
    "plan_10x_uncached": 2.0,
    "plan_10x_cold_cache": 2.0,
    "plan_10x_warm_cache": 2.5,
}

#: Benches with baseline means under this floor are reported but never
#: fail the gate — at sub-millisecond scale the ratio is pure noise.
MIN_GATED_SECONDS = 0.002


def check_regressions(
    current: dict,
    baseline: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], str]:
    """Compare a fresh bench run against a baseline ``BENCH_perf.json``.

    A bench regresses when its current mean exceeds
    ``baseline_mean * limit + 2 * max(stds)`` where ``limit`` is the
    per-bench threshold (``PER_BENCH_THRESHOLD`` falling back to
    ``threshold``) and the std term absorbs recorded round-to-round
    noise. Benches only present on one side are reported as ``new`` /
    ``missing`` but never fail; neither do sub-floor micro-benches.

    Returns ``(failures, table)`` — an empty ``failures`` list means the
    gate passes. Baselines must be produced on the same machine as the
    current run; cross-machine ratios are meaningless.
    """
    from repro.utils.reporting import format_table

    failures: list[str] = []
    rows = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            rows.append([name, "-", cur["mean_s"], "-", "-", "new"])
            continue
        if cur is None:
            rows.append([name, base["mean_s"], "-", "-", "-", "missing"])
            continue
        limit = PER_BENCH_THRESHOLD.get(name, threshold)
        base_mean = float(base["mean_s"])
        cur_mean = float(cur["mean_s"])
        ratio = cur_mean / base_mean if base_mean > 0 else float("inf")
        noise = 2.0 * max(float(base.get("std_s", 0.0)), float(cur.get("std_s", 0.0)))
        if base_mean < MIN_GATED_SECONDS:
            status = "ok (ungated: micro)"
        elif cur_mean > base_mean * limit + noise:
            status = "REGRESSION"
            failures.append(
                f"{name}: {cur_mean:.4f}s vs baseline {base_mean:.4f}s "
                f"(ratio {ratio:.2f}x > limit {limit:.2f}x + noise {noise:.4f}s)"
            )
        else:
            status = "ok"
        rows.append([name, base_mean, cur_mean, f"{ratio:.2f}x", f"{limit:.2f}x", status])
    table = format_table(
        ["bench", "baseline_s", "current_s", "ratio", "limit", "status"],
        rows,
        title="bench regression check",
    )
    return failures, table


def baseline_warnings(baseline: dict) -> list[str]:
    """Consistency warnings for a baseline ``BENCH_perf.json``.

    The regression gate assumes every baseline entry describes the same
    code state and runtime; this audits that assumption without failing
    the gate:

    - **mixed commits** — entries recorded at different commits compare
      the current run against several historical code states at once;
      regenerate with one full ``repro bench`` run;
    - **runtime drift** — entries stamped with a different interpreter or
      numpy version than the current process (kernel-bound means shift
      across numpy releases). Entries predating the version stamps are
      skipped.
    """
    warnings: list[str] = []
    if not baseline:
        return warnings
    commits = sorted({entry.get("commit", "unknown") for entry in baseline.values()})
    if len(commits) > 1:
        warnings.append(
            f"baseline mixes entries from {len(commits)} commits "
            f"({', '.join(commits)}); ratios compare against inconsistent "
            "code states — regenerate with one full `repro bench` run"
        )
    pythons = sorted({e["python"] for e in baseline.values() if "python" in e})
    current_python = platform.python_version()
    if pythons and (len(pythons) > 1 or pythons[0] != current_python):
        warnings.append(
            f"baseline recorded under python {', '.join(pythons)} but current "
            f"run is {current_python}; absolute times are not comparable"
        )
    numpys = sorted({e["numpy"] for e in baseline.values() if "numpy" in e})
    if numpys and (len(numpys) > 1 or numpys[0] != np.__version__):
        warnings.append(
            f"baseline recorded under numpy {', '.join(numpys)} but current "
            f"run is {np.__version__}; kernel-bound means may shift"
        )
    return warnings


def load_bench_json(path=DEFAULT_BENCH_PATH) -> dict:
    """Read a ``BENCH_perf.json`` baseline (empty dict when absent)."""
    path = Path(path)
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}


# ----------------------------------------------------------------------
# The registry


@dataclasses.dataclass(frozen=True)
class Run:
    """One variant's timing over its rounds and the result of its last call."""

    mean_s: float
    std_s: float
    rounds: int
    last: object


@dataclasses.dataclass(frozen=True)
class Bench:
    """One registry entry.

    ``names``: the keys it writes.
    ``setup()``: a context manager yielding ``{variant: callable}``.
    ``check(runs)``: raises :class:`AssertionError` on a wrong result.
    ``extras(runs)``: ``{name: {key: value}}`` merged into the entries.
    """

    names: tuple[str, ...]
    setup: Callable[[], ContextManager[dict[str, Callable[[], object]]]]
    check: Callable[[dict[str, Run]], None]
    extras: Callable[[dict[str, Run]], dict[str, dict]] = lambda runs: {}
    memory: bool = False


def time_variants(variants: dict, rounds: int, written=()) -> dict[str, Run]:
    """Time ``variants`` with interleaved rounds; see the module timing rule."""
    samples: dict = {name: [] for name in variants}
    last: dict = {}

    def pending(name: str) -> bool:
        taken = samples[name]
        return len(taken) < rounds or (name in written and sum(taken) < MIN_TIMED_S)

    while active := [name for name in variants if pending(name)]:
        for name in active:
            started = time.perf_counter()
            last[name] = variants[name]()
            samples[name].append(time.perf_counter() - started)
    return {
        name: Run(float(np.mean(taken)), float(np.std(taken)), len(taken), last[name])
        for name, taken in samples.items()
    }


def peak_alloc_mib(fn: Callable[[], object]) -> float:
    """Peak traced allocation of one ``fn()`` call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
    finally:
        tracemalloc.stop()


def run_bench(
    *,
    rounds: int = 3,
    out: str | None = DEFAULT_BENCH_PATH,
) -> tuple[dict, list[str]]:
    """Run every registry entry; returns (results, human-readable notes).

    No bench fans out; should one start the worker pool anyway, the pool
    is shut down (and its shared segments released) before returning.
    """
    commit = bench_commit()
    rounds = max(1, rounds)
    results: dict = {}
    notes = [f"machine: {os.cpu_count() or 1} cpu(s)"]
    # Count solver/rollout invocations in the ambient registry when
    # telemetry is on (so cache hit-rate metrics reach the CLI exports),
    # else in a private one.
    registry = get_registry() if telemetry_enabled() else MetricsRegistry()
    try:
        with use_registry(registry):
            for bench in BENCHES:
                names = bench.names
                with bench.setup() as variants:
                    runs = time_variants(variants, rounds, names)
                    bench.check(runs)
                    extras = bench.extras(runs)
                    if bench.memory:
                        for name in names:
                            extras.setdefault(name, {})["peak_alloc_mib"] = round(
                                peak_alloc_mib(variants[name]), 2
                            )
                for name in names:
                    run = runs[name]
                    record(
                        results, name, run.mean_s, run.rounds, std_s=run.std_s,
                        commit=commit, extra=extras.get(name),
                    )
    finally:
        shutdown_worker_pool()
    if out is not None:
        write_bench_json(results, out)
        notes.append(f"wrote {len(results)} benches to {out}")
    return results, notes


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _family_total(registry, name: str) -> float:
    """Sum of a counter family across label sets (0 when absent)."""
    for family in registry.families():
        if family.name == name:
            return float(sum(child.value for child in family.children.values()))
    return 0.0


def _train_scenario() -> SyntheticScenario:
    return SyntheticScenario(
        ScenarioConfig(
            n_tasks=24, n_regimes=4, n_history=16, n_eval=3, fluctuation_sigma=0.7, seed=0
        )
    )


def _context(epoch) -> EpochContext:
    return EpochContext(sensing=epoch.sensing, features=epoch.features, day=epoch.day)


def _small_allocators():
    """(scenario, nodes, network, allocators) with a 10-episode CRL."""
    scenario = _train_scenario()
    nodes, network = scaled_testbed(6)
    allocators = build_allocators(scenario, nodes, crl_episodes=10, crl_clusters=3, seed=0)
    return scenario, nodes, network, allocators


# ----------------------------------------------------------------------
# Building data and the whole system

DATASET_DAYS = 20


@contextlib.contextmanager
def _dataset_setup():
    config = BuildingOperationConfig(n_days=DATASET_DAYS, n_buildings=2, seed=7)
    yield {"building_dataset_generate": lambda: BuildingOperationDataset(config).generate()}


def _dataset_check(runs):
    dataset = runs["building_dataset_generate"].last
    _require(dataset.n_tasks > 0, "generated dataset has no tasks")
    _require(dataset.days.size == DATASET_DAYS, f"generated {dataset.days.size} days")


@contextlib.contextmanager
def _system_setup():
    config = DCTASystemConfig(
        building=BuildingOperationConfig(n_days=12, n_buildings=2, seed=0),
        crl_episodes=4,
        seed=0,
    )
    yield {"dcta_system_build": lambda: DCTASystem(config).build()}


# ----------------------------------------------------------------------
# CRL training (Algorithm 1) and its kernels

CRL_CLUSTERS = 4


@contextlib.contextmanager
def _crl_setup():
    """4-cluster CRL fit, trained in-process in one lockstep pass. The
    variant returns a thunk for its eval-epoch plans and the worker-pool
    spin-ups the fit caused (it must cause none)."""
    scenario = _train_scenario()
    nodes, _ = scaled_testbed(6)
    epochs = [(scenario.workload_for(epoch), _context(epoch)) for epoch in scenario.eval_epochs]

    def train():
        spinups = get_worker_pool().spinups
        crl = build_allocators(
            scenario, nodes, crl_episodes=30, crl_clusters=CRL_CLUSTERS, seed=0
        )["CRL"]

        def plans():
            return [crl.plan(workload, nodes, context).assignments for workload, context in epochs]

        return plans, get_worker_pool().spinups - spinups

    yield {"crl_train_4cluster_jobs1": train}


def _crl_check(runs):
    plans, spinups = runs["crl_train_4cluster_jobs1"].last
    _require(len(plans()) > 0, "CRL produced no eval-epoch plans")
    _require(spinups == 0, f"the CRL fit started {spinups} worker pool(s)")


def _crl_params_sha(agents) -> str:
    """Digest of every agent's trained state (identity checks)."""
    digest = hashlib.sha256()
    for agent in agents:
        digest.update(np.ascontiguousarray(agent.online._flat_params).tobytes())
        digest.update(np.ascontiguousarray(agent.target._flat_params).tobytes())
        digest.update(np.float64(agent.epsilon).tobytes())
        digest.update(np.int64(agent._steps).tobytes())
    return digest.hexdigest()


@contextlib.contextmanager
def _stacked_setup():
    """Lockstep-stacked vs per-agent training of one four-task list: the
    stacked path is what every CRL fit runs, so it is the number
    ``crl_train_4cluster_jobs1`` rides on."""
    scenario = _train_scenario()
    nodes, _ = scaled_testbed(6)
    geometry = tatim_from_workload(scenario.tasks, nodes)
    importance = scenario.environment_store().importance_matrix
    # Four environments, each the mean of every fourth stored day.
    tasks = [
        AgentTrainTask(
            geometry=geometry,
            importance=importance[cluster::4].mean(axis=0),
            dqn_config=DQNConfig(hidden_sizes=(64, 32)),
            episodes=30,
            seed=seed,
        )
        for cluster, seed in enumerate(derive_seeds(0, 4))
    ]
    yield {
        "crl_train_stacked": lambda: train_allocation_agents_stacked(tasks),
        "crl_train_unstacked": lambda: [train_allocation_agent(task) for task in tasks],
    }


#: The kernel benches' agent: replay sampling starts after 64 transitions.
_KERNEL_DQN = DQNConfig(hidden_sizes=(128, 64), batch_size=32, warmup_transitions=64)


@contextlib.contextmanager
def _rollout_setup():
    """32 greedy rollouts sharing the agent's geometry with per-instance
    importance vectors (the dispatcher's miss-group shape)."""
    base = random_instance(24, 3, seed=11)
    env = AllocationEnv(base)
    agent = DQNAgent(env.state_dim, env.n_actions, _KERNEL_DQN, seed=5)
    for _ in range(4):
        agent.train_episode(env)
    rng = np.random.default_rng(23)
    problems = [base.scaled(importance=rng.uniform(0.1, 1.0, base.n_tasks)) for _ in range(32)]
    yield {
        "rollout_serial_x32": lambda: [agent.solve(AllocationEnv(p)) for p in problems],
        "rollout_batch_x32": lambda: agent.solve_greedy_batch(BatchedAllocationEnv(problems)),
    }


@contextlib.contextmanager
def _dqn_setup():
    """Single-process DQN kernel hot paths. The replay buffer is filled
    past warmup first, so every timed gradient step trains."""
    env = AllocationEnv(random_instance(24, 3, seed=11))
    agent = DQNAgent(env.state_dim, env.n_actions, _KERNEL_DQN, seed=5)
    while len(agent.buffer) < 512:
        agent.train_episode(env)
    rollout_rng = np.random.default_rng(17)

    def train_steps():
        loss = None
        for _ in range(200):
            loss = agent.train_step()
        return loss

    def env_rollouts():
        steps = 0
        for _ in range(50):
            env.reset()
            while not env.done:
                env.step(int(rollout_rng.choice(env.feasible_actions())))
                steps += 1
        env.reset()
        return steps

    yield {
        "dqn_train_step_x200": train_steps,
        "dqn_train_episode_x10": lambda: [agent.train_episode(env) for _ in range(10)],
        "dqn_solve_greedy_x20": lambda: [agent.solve(env) for _ in range(20)],
        "env_random_rollout_x50": env_rollouts,
    }


def _dqn_check(runs):
    loss = runs["dqn_train_step_x200"].last
    _require(loss is not None and np.isfinite(loss), f"DQN train-step loss {loss}")
    returns = runs["dqn_train_episode_x10"].last
    _require(len(returns) == 10 and np.all(np.isfinite(returns)), f"returns {returns}")
    solves = runs["dqn_solve_greedy_x20"].last
    # Greedy inference is deterministic: every rollout must agree.
    _require(
        len(solves) == 20 and all(np.array_equal(solves[0].matrix, a.matrix) for a in solves),
        "the 20 greedy solves of one instance disagree",
    )
    _require(runs["env_random_rollout_x50"].last > 0, "random rollouts took no steps")


# ----------------------------------------------------------------------
# Task importance (Definition 1)

IMPORTANCE_DAYS = 8


@contextlib.contextmanager
def _importance_setup():
    """Leave-one-out and Shapley evaluators, built inside each timed call
    so the cross-call coalition caches never leak warmth between rounds."""
    dataset = BuildingOperationDataset(
        BuildingOperationConfig(n_days=12, n_buildings=2, seed=3)
    ).generate()
    model_set = make_strategy("clustered", "ridge", seed=0).fit(dataset.tasks)
    days = np.arange(IMPORTANCE_DAYS)
    yield {
        "loo_importance_jobs1": lambda: ImportanceEvaluator(
            dataset, model_set
        ).importance_matrix(days),
        "shapley_importance_jobs1": lambda: ShapleyImportanceEvaluator(
            dataset, model_set, n_permutations=8, seed=5
        ).importance_for_day(1),
    }


def _importance_check(runs):
    matrix = runs["loo_importance_jobs1"].last
    values = runs["shapley_importance_jobs1"].last
    _require(values.ndim == 1 and values.size > 0, f"Shapley vector shape {values.shape}")
    _require(matrix.shape == (IMPORTANCE_DAYS, values.size), f"LOO matrix shape {matrix.shape}")


# ----------------------------------------------------------------------
# Edge simulation: testbed epochs and the fleet


@contextlib.contextmanager
def _epoch_setup():
    """One DCTA-planned epoch, clean and with a third of the nodes failing
    mid-run (the controller's re-dispatch path)."""
    scenario, nodes, network, allocators = _small_allocators()
    epoch = scenario.eval_epochs[0]
    workload = scenario.workload_for(epoch)
    plan = allocators["DCTA"].plan(workload, nodes, _context(epoch))
    simulator = EdgeSimulator(nodes, network)
    failures = {node.node_id: 5.0 for node in list(nodes)[::3]}

    def with_failures():
        return simulator.run(workload, plan, failures=failures)

    yield {
        "edgesim_epoch_run": lambda: simulator.run(workload, plan),
        "edgesim_epoch_run_failures": with_failures,
        "edgesim_epoch_run_failures@repeat": with_failures,
    }


def _epoch_check(runs):
    clean = runs["edgesim_epoch_run"].last
    failed = runs["edgesim_epoch_run_failures"].last
    repeat = runs["edgesim_epoch_run_failures@repeat"].last
    _require(clean.gate_crossed and failed.gate_crossed, "epoch did not cross the gate")
    _require(clean.processing_time > 0 and clean.tasks_executed > 0, "clean epoch did no work")
    # Losing nodes mid-run forces re-transfers; the epoch cannot finish
    # faster than the failure-free run of the identical plan.
    _require(
        failed.processing_time >= clean.processing_time,
        f"PT with failures {failed.processing_time} < clean PT {clean.processing_time}",
    )
    # The DES is seedless and event-ordered, so repeat runs are identical.
    _require(
        (repeat.processing_time, repeat.tasks_executed)
        == (failed.processing_time, failed.tasks_executed),
        "repeat epoch run with failures differs",
    )


def _fleet_config(n_nodes: int, duration_s: float) -> FleetConfig:
    """Regions hold ~125 nodes each; the arrival rate keeps the per-region
    radio at the defaults' utilization (30 arrivals/s over 8 regions)."""
    n_regions = n_nodes // 125
    return FleetConfig(
        n_nodes=n_nodes,
        n_regions=n_regions,
        duration_s=duration_s,
        arrival_rate_hz=30.0 * (n_regions / 8),
        churn_rate_hz=2.0,
        seed=0,
    )


def _fleet_extras(run: Run, result) -> dict:
    return {
        "nodes": result.n_nodes,
        "events": result.events,
        "events_per_sec": round(result.events / max(run.mean_s, 1e-9), 1),
        "completed": result.completed,
    }


@contextlib.contextmanager
def _fleet_setup():
    fleet_10k = FleetSimulator(_fleet_config(10_000, 5.0))
    fleet_100k = FleetSimulator(_fleet_config(100_000, 5.0))
    fleet_1m = FleetSimulator(_fleet_config(1_000_000, 2.0))
    yield {
        "edgesim_fleet_10k": fleet_10k.run,
        "edgesim_fleet_100k": fleet_100k.run,
        "edgesim_fleet_1m": fleet_1m.run,
    }


def _fleet_check(runs):
    _require(
        all(run.last.completed > 0 for run in runs.values()), "a fleet run completed no tasks"
    )
    nodes = runs["edgesim_fleet_1m"].last.n_nodes
    _require(nodes == 1_000_000, f"1M bench ran {nodes} nodes")


# ----------------------------------------------------------------------
# Planning through the allocation cache

PLAN_QUERIES = 10


@contextlib.contextmanager
def _plan_cache_setup():
    """Uncached, cold-cache and warm-cache planning of 10 repeat queries
    whose sensing jitter is below the cache's quantization (the drift
    regime where consecutive epochs quantize to one environment).

    Each cold pass gets a fresh cache; warm passes share one primed
    untimed. A pass returns its assignments, the CRL rollouts it ran and
    its cache's hit ratio.
    """
    scenario, nodes, _, allocators = _small_allocators()
    crl = allocators["CRL"]
    epoch = scenario.eval_epochs[0]
    workload = scenario.workload_for(epoch)
    jitter_rng = np.random.default_rng(0)
    contexts = [
        EpochContext(
            sensing=epoch.sensing + jitter_rng.normal(0.0, 1e-9, size=epoch.sensing.shape),
            features=epoch.features,
            day=epoch.day,
        )
        for _ in range(PLAN_QUERIES)
    ]

    def plan_pass(cache):
        # ``is None``, not truthiness: an empty cache has len() 0.
        with contextlib.nullcontext() if cache is None else use_allocation_cache(cache):
            before = _family_total(get_registry(), "repro_rl_crl_rollouts_total")
            plans = [crl.plan(workload, nodes, context).assignments for context in contexts]
            rollouts = _family_total(get_registry(), "repro_rl_crl_rollouts_total") - before
        return plans, rollouts, None if cache is None else cache.hit_ratio

    warm = AllocationCache()
    plan_pass(warm)
    yield {
        "plan_10x_uncached": lambda: plan_pass(None),
        "plan_10x_cold_cache": lambda: plan_pass(AllocationCache()),
        "plan_10x_warm_cache": lambda: plan_pass(warm),
    }


def _plan_cache_check(runs):
    (plans, uncached, _), (cold_plans, cold, cold_hits), (warm_plans, warm, warm_hits) = (
        runs[f"plan_10x_{kind}"].last for kind in ("uncached", "cold_cache", "warm_cache")
    )
    _require(plans == cold_plans == warm_plans, "cached allocations diverged from uncached")
    _require(uncached == PLAN_QUERIES, f"uncached pass ran {uncached} rollouts")
    _require(warm == 0, f"warm-cache pass ran {warm} rollouts")
    _require(uncached >= 5.0 * max(cold, 1.0), f"cold cache ran {cold} rollouts (< 5x fewer)")
    _require(min(cold_hits, warm_hits) > 0.5, f"hit ratios {cold_hits}, {warm_hits} <= 0.5")


# ----------------------------------------------------------------------
# Allocation-as-a-service


def _serve_extras(runs) -> dict:
    """KPI extras of each serve run (ms for readability)."""
    extras = {}
    for name, run in runs.items():
        summary = run.last.summary
        extras[name] = {
            "throughput_rps": round(float(summary.get("throughput_rps", 0.0)), 1),
            "latency_p50_ms": round(float(summary.get("latency_p50_s", 0.0)) * 1e3, 4),
            "latency_p95_ms": round(float(summary.get("latency_p95_s", 0.0)) * 1e3, 4),
            "latency_p99_ms": round(float(summary.get("latency_p99_s", 0.0)) * 1e3, 4),
            "requests": int(summary.get("requests", 0)),
            "rejected": int(summary.get("rejected", 0)),
            "max_queue_depth": int(summary.get("max_queue_depth", 0)),
        }
    return extras


@contextlib.contextmanager
def _serve_setup():
    """``serve_replay_cold`` / ``serve_replay_warm`` drain the trace
    unpaced (fresh vs primed cache): their ``mean_s`` is service capacity.
    ``serve_sustained_load_warm`` paces against the wall clock, so its
    ``mean_s`` pins to the trace duration and its KPI extras are the
    payload."""
    config = ServeConfig(
        arrival_rate_hz=2000.0, duration_s=1.0, queue_depth=512, batch_max=64, seed=0
    )
    geometry, requests = generate_trace(config)

    def replay_cold():
        with Dispatcher(geometry, config) as dispatcher:
            return dispatcher.replay(requests)

    with Dispatcher(geometry, config) as warm:
        warm.replay(requests)  # prime the cache, untimed
        yield {
            "serve_replay_cold": replay_cold,
            "serve_replay_warm": lambda: warm.replay(requests),
            "serve_sustained_load_warm": lambda: warm.run(requests),
        }


SATURATION_QUEUE_DEPTH = 16


@contextlib.contextmanager
def _saturation_setup():
    """A solver slow enough that the offered rate is far beyond capacity,
    a queue too small to absorb it, and no cache to hide behind."""

    def bench_slow_solver(problem):
        time.sleep(0.005)
        return dispatcher_module.SOLVERS["density_greedy"](problem)

    config = ServeConfig(
        arrival_rate_hz=2000.0,
        duration_s=0.5,
        queue_depth=SATURATION_QUEUE_DEPTH,
        batch_max=8,
        solver="bench_slow",
        cache=False,
        drift_sigma=1e-6,
        seed=1,
    )
    dispatcher_module.SOLVERS["bench_slow"] = bench_slow_solver
    try:
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            yield {"serve_saturation_shed": lambda: dispatcher.run(requests)}
    finally:
        del dispatcher_module.SOLVERS["bench_slow"]


def _saturation_check(runs):
    report = runs["serve_saturation_shed"].last
    _require(report.rejected > 0, "saturation bench shed nothing; overload not reached")
    depth = int(report.summary.get("max_queue_depth", 0))
    _require(depth <= SATURATION_QUEUE_DEPTH, f"queue depth {depth} exceeded its bound")


# ----------------------------------------------------------------------

#: Every tracked bench, in run order.
BENCHES: tuple[Bench, ...] = (
    Bench(("building_dataset_generate",), _dataset_setup, _dataset_check),
    Bench(
        ("dcta_system_build",),
        _system_setup,
        lambda runs: _require(
            set(runs["dcta_system_build"].last.allocators or ()) == {"RM", "DML", "CRL", "DCTA"},
            "the built system lacks one of the RM/DML/CRL/DCTA allocators",
        ),
    ),
    Bench(("crl_train_4cluster_jobs1",), _crl_setup, _crl_check),
    Bench(
        ("crl_train_stacked", "crl_train_unstacked"),
        _stacked_setup,
        lambda runs: _require(
            _crl_params_sha(runs["crl_train_stacked"].last)
            == _crl_params_sha(runs["crl_train_unstacked"].last),
            "stacked CRL training diverged from per-agent training",
        ),
        memory=True,
    ),
    Bench(
        ("dqn_train_step_x200", "dqn_train_episode_x10", "dqn_solve_greedy_x20",
         "env_random_rollout_x50"),
        _dqn_setup,
        _dqn_check,
    ),
    Bench(
        ("rollout_serial_x32", "rollout_batch_x32"),
        _rollout_setup,
        lambda runs: _require(
            [a.as_assignment() for a in runs["rollout_serial_x32"].last]
            == [a.as_assignment() for a in runs["rollout_batch_x32"].last],
            "batched greedy rollouts diverged from serial solves",
        ),
    ),
    Bench(
        ("loo_importance_jobs1", "shapley_importance_jobs1"), _importance_setup, _importance_check
    ),
    Bench(("edgesim_epoch_run", "edgesim_epoch_run_failures"), _epoch_setup, _epoch_check),
    Bench(
        ("edgesim_fleet_10k", "edgesim_fleet_100k", "edgesim_fleet_1m"),
        _fleet_setup,
        _fleet_check,
        lambda runs: {name: _fleet_extras(run, run.last) for name, run in runs.items()},
        memory=True,
    ),
    Bench(
        ("plan_10x_uncached", "plan_10x_cold_cache", "plan_10x_warm_cache"),
        _plan_cache_setup,
        _plan_cache_check,
    ),
    Bench(
        ("serve_replay_cold", "serve_replay_warm", "serve_sustained_load_warm"),
        _serve_setup,
        lambda runs: _require(
            runs["serve_replay_cold"].last.identities()
            == runs["serve_replay_warm"].last.identities(),
            "warm-cache answers diverged from cold solves",
        ),
        _serve_extras,
    ),
    Bench(("serve_saturation_shed",), _saturation_setup, _saturation_check, _serve_extras),
)
