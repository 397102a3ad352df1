"""WorkerPool: worker counts, executor reuse, fork safety."""

from __future__ import annotations

import os

import pytest

from repro.parallel import WorkerPool, get_worker_pool
from repro.parallel import pool as pool_module
from repro.telemetry import MetricsRegistry, use_registry


def _counter_total(registry, name, **labels):
    total = 0.0
    wanted = set(labels.items())
    for family in registry.families():
        if family.name != name:
            continue
        for key, child in family.children.items():
            if wanted <= set(key):
                total += child.value
    return total


@pytest.fixture
def pool():
    p = WorkerPool()
    yield p
    p.shutdown()


class TestEffectiveJobs:
    def test_serial_requests_stay_serial(self, pool):
        assert pool.effective_jobs(1, 100) == 1
        assert pool.effective_jobs(4, 1) == 1
        assert pool.effective_jobs(4, 0) == 1

    def test_large_work_parallelizes(self, pool):
        assert pool.effective_jobs(4, 8) == 4
        assert pool.effective_jobs(4, 3) == 3  # never more workers than tasks

    def test_without_estimate_trusts_the_caller(self, pool, monkeypatch):
        """No cost model and no core-count rule: jobs means jobs."""
        for cpus in (1, 2):
            monkeypatch.setattr(pool_module.os, "cpu_count", lambda cpus=cpus: cpus)
            registry = MetricsRegistry()
            with use_registry(registry):
                assert pool.effective_jobs(8, 16) == 8
            assert _counter_total(registry, "repro_pool_adaptive_serial_total") == 0

    def test_forked_child_never_parallelizes(self, pool):
        # Simulate a pool handle inherited across a fork: pid mismatch.
        pool._pid = os.getpid() + 1
        registry = MetricsRegistry()
        with use_registry(registry):
            # A worker process must not nest pools.
            assert pool.effective_jobs(4, 8) == 1
        assert (
            _counter_total(
                registry, "repro_pool_adaptive_serial_total", reason="forked_child"
            )
            == 1
        )
        pool._pid = None  # restore so the fixture shutdown is clean


class TestExecutorLifecycle:
    def test_lazy_spinup_and_reuse(self, pool):
        assert not pool.warm and pool.size == 0
        first = pool.executor(2)
        assert pool.warm and pool.size == 2 and pool.spinups == 1
        assert pool.executor(2) is first  # warm reuse, no rebuild
        assert pool.executor(1) is first  # smaller requests fit the pool
        assert pool.spinups == 1

    def test_growth_rebuilds_executor(self, pool):
        first = pool.executor(1)
        second = pool.executor(2)
        assert second is not first
        assert pool.spinups == 2 and pool.size == 2

    def test_shutdown_idempotent_and_reusable(self, pool):
        pool.executor(1)
        pool.shutdown()
        assert not pool.warm and pool.size == 0
        pool.shutdown()  # idempotent
        pool.executor(1)  # the pool can be reused after shutdown
        assert pool.warm and pool.spinups == 2

    def test_reset_discards_broken_executor(self, pool):
        pool.executor(1)
        pool.reset()
        assert not pool.warm
        pool.executor(1)
        assert pool.spinups == 2

    def test_executor_runs_tasks(self, pool):
        futures = [pool.executor(2).submit(pow, 2, i) for i in range(4)]
        assert [f.result() for f in futures] == [1, 2, 4, 8]


class TestSingleton:
    def test_get_worker_pool_is_singleton(self):
        assert get_worker_pool() is get_worker_pool()
