"""ParallelTrainer: ordering, determinism, telemetry merge, fallback.

``jobs=2`` always runs real worker processes, even on single-core
machines.
"""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    ParallelTrainer,
    get_worker_pool,
    merge_worker_metrics,
    merge_worker_spans,
    shutdown_worker_pool,
)
from repro.parallel.trainer import _run_in_worker
from repro.rl.crl import AgentTrainTask, train_allocation_agent
from repro.rl.dqn import DQNConfig
from repro.tatim.generators import random_instance
from repro.telemetry import MetricsRegistry, RunTrace, use_registry, use_run_trace
from repro.utils.rng import as_rng, derive_seeds


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    """Leave no worker processes or shared segments behind this module."""
    yield
    shutdown_worker_pool()


def square(payload):
    return payload * payload


#: Captured at import in the test process; forked workers inherit it.
PARENT_PID = os.getpid()

#: Payloads the parent process itself ran ``boom`` on.
PARENT_BOOM_CALLS = []


def boom(payload):
    if os.getpid() == PARENT_PID:
        PARENT_BOOM_CALLS.append(payload)
    raise TypeError(f"boom {payload}")


def die_on_two(payload):
    """Kill the worker that handles payload 2 (never the test process)."""
    if payload == 2 and os.getpid() != PARENT_PID:
        os._exit(1)
    return payload * payload


def seeded_draw(seed):
    return float(as_rng(seed).random())


def spin_metrics(payload):
    from repro.telemetry import get_registry, span

    with span("worker.step", payload=payload):
        get_registry().counter("repro_test_worker_total", help="test").inc(payload)
        get_registry().histogram(
            "repro_test_worker_seconds", buckets=(1.0, 10.0), help="test"
        ).observe(float(payload))
    return payload


def _counter_total(registry, name):
    for family in registry.families():
        if family.name == name:
            return float(sum(child.value for child in family.children.values()))
    return 0.0


def _train_task(seed: int) -> AgentTrainTask:
    geometry = random_instance(6, 2, seed=0)
    rng = np.random.default_rng(4)
    return AgentTrainTask(
        geometry=geometry,
        importance=np.abs(rng.normal(size=6)),
        dqn_config=DQNConfig(hidden_sizes=(16,)),
        episodes=10,
        seed=seed,
        seed_demonstrations=0,
        mode="offline",
    )


class TestMap:
    def test_invalid_jobs(self):
        with pytest.raises(ConfigurationError):
            ParallelTrainer(square, jobs=0)

    def test_empty_payloads(self):
        assert ParallelTrainer(square, jobs=2).map([]) == []

    def test_serial_matches_input_order(self):
        assert ParallelTrainer(square, jobs=1).map([3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        payloads = list(range(6))
        serial = ParallelTrainer(square, jobs=1).map(payloads)
        parallel = ParallelTrainer(square, jobs=2).map(payloads)
        assert parallel == serial

    def test_seeded_payloads_deterministic_across_jobs(self):
        seeds = derive_seeds(0, 4)
        serial = ParallelTrainer(seeded_draw, jobs=1).map(seeds)
        parallel = ParallelTrainer(seeded_draw, jobs=2).map(seeds)
        assert parallel == serial

    def test_unpicklable_fn_falls_back_to_serial(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(lambda p: p + 1, jobs=2)
            assert trainer.map([1, 2, 3]) == [2, 3, 4]
        assert _counter_total(registry, "repro_parallel_fallbacks_total") == 1

    def test_worker_error_raised_once_without_serial_rerun(self):
        """An exception from ``fn`` is not a dispatch failure: it reaches
        the caller as raised in the worker, and the map is not rerun."""
        PARENT_BOOM_CALLS.clear()
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(TypeError, match="boom 1") as raised:
                ParallelTrainer(boom, jobs=2).map([1, 2, 3])
        assert "in boom" in str(raised.value.__cause__)  # the worker's traceback
        assert PARENT_BOOM_CALLS == []
        assert _counter_total(registry, "repro_parallel_fallbacks_total") == 0

    def test_dead_worker_falls_back_and_rebuilds_the_pool(self, child_pids):
        """A worker killed mid-map: the map still returns the jobs=1
        result, counts one fallback, the next map builds a fresh
        executor, and shutdown leaves no child process behind."""
        shutdown_worker_pool()
        before = child_pids()  # e.g. multiprocessing's resource tracker
        pool = get_worker_pool()
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(die_on_two, jobs=2)
            assert trainer.map([1, 2, 3]) == [1, 4, 9]
            assert _counter_total(registry, "repro_parallel_fallbacks_total") == 1
            spinups = pool.spinups
            assert trainer.map([1, 3]) == [1, 9]
            assert pool.spinups == spinups + 1
        shutdown_worker_pool()
        assert child_pids() <= before

    def test_agent_training_identical_serial_vs_parallel(self):
        """The real CRL worker: same seeds, same greedy policy either way."""
        tasks = [_train_task(seed) for seed in derive_seeds(0, 2)]
        serial = ParallelTrainer(train_allocation_agent, jobs=1).map(tasks)
        parallel = ParallelTrainer(train_allocation_agent, jobs=2).map(tasks)
        problem = tasks[0].geometry.scaled(importance=np.asarray(tasks[0].importance))
        from repro.rl.env import AllocationEnv

        for a, b in zip(serial, parallel):
            assert np.array_equal(
                a.solve(AllocationEnv(problem)).matrix,
                b.solve(AllocationEnv(problem)).matrix,
            )

    def test_repeated_maps_reuse_pool(self):
        """Back-to-back maps must not spin up a fresh executor each time."""
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(square, jobs=2)
            trainer.map([1, 2, 3])
            spinups_after_first = _counter_total(registry, "repro_pool_spinups_total")
            trainer.map([4, 5, 6])
            spinups_after_second = _counter_total(registry, "repro_pool_spinups_total")
        assert spinups_after_second == spinups_after_first


class TestTelemetryMerge:
    def test_run_in_worker_returns_plain_data(self):
        error, value, spans, metrics = _run_in_worker(spin_metrics, 3)
        assert error is None and value == 3
        assert isinstance(metrics, dict)
        assert all(isinstance(record, dict) for record in spans)
        (error, worker_traceback), value, *_ = _run_in_worker(boom, 4)
        assert isinstance(error, TypeError) and value is None
        assert "boom 4" in worker_traceback

    def test_worker_metrics_merged_into_parent(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            ParallelTrainer(spin_metrics, jobs=2).map([2, 5])
        assert _counter_total(registry, "repro_test_worker_total") == 7
        assert _counter_total(registry, "repro_parallel_tasks_total") == 2
        for family in registry.families():
            if family.name == "repro_test_worker_seconds":
                child = next(iter(family.children.values()))
                assert child.count == 2
                assert child.sum == pytest.approx(7.0)
                break
        else:  # pragma: no cover
            pytest.fail("worker histogram not merged")

    def test_merge_idempotent_across_pool_reuse(self):
        """A long-lived pool must not double-count a task's telemetry.

        Each payload's telemetry merges exactly once, however many
        batches the same worker process ends up serving.
        """
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(spin_metrics, jobs=2)
            trainer.map([2, 5])
            trainer.map([3, 4])
        # 2+5 from the first batch, 3+4 from the second: nothing doubled.
        assert _counter_total(registry, "repro_test_worker_total") == 14
        assert _counter_total(registry, "repro_parallel_tasks_total") == 4

    def test_worker_spans_grafted_under_parallel_worker(self):
        registry = MetricsRegistry()
        trace = RunTrace(label="parent")
        with use_registry(registry), use_run_trace(trace):
            ParallelTrainer(spin_metrics, jobs=2).map([1, 2])
        names = [record.name for record in trace.spans]
        assert names.count("parallel.worker") == 2
        workers = [r for r in trace.spans if r.name == "parallel.worker"]
        assert all(r.attrs.get("clock") == "worker" for r in workers)

    def test_merge_helpers_noop_without_sinks(self):
        # No ambient registry/trace: merging must not raise.
        merge_worker_metrics({"metrics": [{"name": "x", "kind": "counter", "value": 1}]})
        merge_worker_spans([{"name": "s", "start": 0.0, "end": 1.0}], worker=0)
