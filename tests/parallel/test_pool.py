"""WorkerPool: adaptive fallback decisions, executor reuse, fork safety."""

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

    def test_force_bypasses_adaptive_checks(self, pool):
        assert pool.effective_jobs(4, 8, force=True) == 4
        assert pool.effective_jobs(4, 3, force=True) == 3  # never more than tasks

    def test_force_env_var(self, pool, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FORCE_PARALLEL", "1")
        assert pool.effective_jobs(4, 8, estimated_cost_s=1e-9) == 4

    def test_single_core_degrades_to_serial(self, pool, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        registry = MetricsRegistry()
        with use_registry(registry):
            assert pool.effective_jobs(4, 8, estimated_cost_s=100.0) == 1
        assert (
            _counter_total(
                registry, "repro_pool_adaptive_serial_total", reason="single_core"
            )
            == 1
        )

    def test_small_work_degrades_to_serial(self, pool, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
        registry = MetricsRegistry()
        with use_registry(registry):
            # Estimated saving (µs) can never repay spin-up (hundreds of ms).
            assert pool.effective_jobs(4, 8, estimated_cost_s=1e-6) == 1
        assert (
            _counter_total(
                registry, "repro_pool_adaptive_serial_total", reason="small_work"
            )
            == 1
        )

    def test_large_work_parallelizes(self, pool, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
        assert pool.effective_jobs(4, 8, estimated_cost_s=100.0) == 4

    def test_without_estimate_trusts_the_caller(self, pool, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
        assert pool.effective_jobs(4, 8) == 4

    def test_jobs_capped_by_cpus(self, pool, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 2)
        assert pool.effective_jobs(8, 16, estimated_cost_s=100.0) == 2

    def test_scarce_cores_degrade_bench_regressed_workloads_to_serial(
        self, pool, monkeypatch
    ):
        """The BENCH_perf.json workloads that lost to serial stay serial.

        ``crl_train_4cluster_jobs2/jobs4`` and ``shapley_importance_jobs4``
        regressed against jobs=1 on a 2-core machine — sub-second chunks
        per worker can't repay dispatch when workers fight the parent for
        cycles. The recalibrated cost model must decline both fan-outs.
        """
        from repro.rl.crl import EST_TRAIN_S_PER_EPISODE

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 2)
        crl_cost = EST_TRAIN_S_PER_EPISODE * 30 * 4  # 4 clusters, 30 episodes
        shapley_cost = 0.01 * 8  # 8 permutations at ~10 ms each
        registry = MetricsRegistry()
        with use_registry(registry):
            assert pool.effective_jobs(4, 4, estimated_cost_s=crl_cost) == 1
            assert pool.effective_jobs(4, 8, estimated_cost_s=shapley_cost) == 1
        assert (
            _counter_total(
                registry, "repro_pool_adaptive_serial_total", reason="scarce_cores"
            )
            == 2
        )

    def test_scarce_cores_still_parallelize_long_chunks(self, pool, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 2)
        # 50 s/worker chunks clear SCARCE_MIN_CHUNK_S easily.
        assert pool.effective_jobs(4, 8, estimated_cost_s=100.0) == 2

    def test_forked_child_never_parallelizes(self, pool):
        # Simulate a pool handle inherited across a fork: pid mismatch.
        pool._pid = os.getpid() + 1
        registry = MetricsRegistry()
        with use_registry(registry):
            # Even force must not nest pools inside a worker process.
            assert pool.effective_jobs(4, 8, force=True) == 1
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

    def test_overhead_estimate_scales(self, pool):
        cold = pool.overhead_s(4, 10)
        pool.executor(4)
        warm = pool.overhead_s(4, 10)
        assert cold > warm  # spin-up dominates the cold estimate
        assert warm == pytest.approx(pool_module.DISPATCH_PER_TASK_S * 10)
