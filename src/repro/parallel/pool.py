"""Persistent, fork-safe worker pool.

A fresh :class:`~concurrent.futures.ProcessPoolExecutor` per fan-out
would repay worker spin-up on every call. :class:`WorkerPool` amortizes
that cost:

- **Lazily created, reusable** — one process-wide executor, spun up on
  the first parallel map and reused by every later one (growing only
  when a call asks for more workers than it holds). Warm dispatch costs
  milliseconds instead of a pool build.
- **Jobs means jobs** — :meth:`effective_jobs` runs ``min(jobs, tasks)``
  workers and never second-guesses the caller: there is no cost model
  and no core-count rule. Callers that should not fan out pass
  ``jobs=1``.
- **Fork-safe** — the pool remembers its creating pid. Code running in a
  forked child (including our own workers, so a nested fan-out inside a
  worker degrades cleanly) sees :meth:`effective_jobs` return 1 and never
  touches the inherited executor.
- **Explicit shutdown** — :func:`shutdown_worker_pool` tears down the
  executor and (by default) unlinks every shared-memory block the
  ambient :class:`~repro.parallel.shm.SharedArrayStore` published, so a
  clean exit leaves nothing in ``/dev/shm``.

Metrics: ``repro_pool_tasks_total{label}``, ``repro_pool_spinups_total``,
``repro_pool_adaptive_serial_total{reason="forked_child"}``,
``repro_pool_workers``.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor

from repro.telemetry import get_registry


class WorkerPool:
    """A reusable process pool; see the module docstring for guarantees."""

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._size = 0
        self._pid: int | None = None
        self.spinups = 0

    # ------------------------------------------------------------------
    @property
    def warm(self) -> bool:
        return self._executor is not None and self._pid == os.getpid()

    @property
    def size(self) -> int:
        return self._size if self.warm else 0

    def effective_jobs(self, jobs: int, tasks: int) -> int:
        """Worker count a fan-out uses: ``min(jobs, tasks)``, 1 = run serial.

        A forked child always runs serial (counted by
        ``repro_pool_adaptive_serial_total{reason="forked_child"}``).
        """
        workers = min(jobs, tasks)
        if workers < 2:
            return 1
        if self._pid is not None and self._pid != os.getpid():
            get_registry().counter(
                "repro_pool_adaptive_serial_total",
                help="Fan-outs the pool declined to parallelize",
                reason="forked_child",
            ).inc()
            return 1
        return workers

    # ------------------------------------------------------------------
    def executor(self, workers: int) -> ProcessPoolExecutor:
        """The shared executor, (re)built to hold at least ``workers``."""
        if self._pid is not None and self._pid != os.getpid():
            # Inherited across a fork: the parent's executor is unusable
            # here; forget it without touching its processes.
            self._executor = None
            self._size = 0
        if self._executor is None or self._size < workers:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._size = workers
            self._pid = os.getpid()
            self.spinups += 1
            registry = get_registry()
            registry.counter(
                "repro_pool_spinups_total", help="Worker-pool executor builds"
            ).inc()
            registry.gauge(
                "repro_pool_workers", help="Worker processes the pool holds"
            ).set(workers)
        return self._executor

    def count_tasks(self, n: int, *, label: str) -> None:
        get_registry().counter(
            "repro_pool_tasks_total",
            help="Payloads executed on the persistent worker pool",
            label=label,
        ).inc(n)

    def reset(self) -> None:
        """Discard a broken executor so the next fan-out rebuilds it."""
        executor, self._executor, self._size = self._executor, None, 0
        if executor is not None and self._pid == os.getpid():
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop the workers (idempotent); the pool can be reused after."""
        executor, self._executor, self._size = self._executor, None, 0
        if executor is not None and self._pid == os.getpid():
            executor.shutdown(wait=True)
        get_registry().gauge(
            "repro_pool_workers", help="Worker processes the pool holds"
        ).set(0)


# ----------------------------------------------------------------------
_pool: WorkerPool | None = None


def get_worker_pool() -> WorkerPool:
    """The process-wide pool singleton, created lazily (never in a fork)."""
    global _pool
    if _pool is None:
        _pool = WorkerPool()
    return _pool


def shutdown_worker_pool(*, release_shared: bool = True) -> None:
    """Tear down the ambient pool and, by default, the shared-memory plane."""
    if _pool is not None:
        _pool.shutdown()
    if release_shared:
        from repro.parallel.shm import release_shared_store

        release_shared_store()


atexit.register(shutdown_worker_pool)
