"""Process-parallel execution for embarrassingly parallel pipeline stages.

Three layers:

- :class:`WorkerPool` — a lazily created, persistent, fork-safe process
  pool singleton that runs ``min(jobs, tasks)`` workers (``pool.py``).
- :class:`SharedArrayStore` / :class:`SharedBlobRef` — a plasma-style
  shared-memory data plane: publish large read-only inputs once, attach
  zero-copy in every worker (``shm.py``). No library code uses it any
  more; it stays while perfbench's tracer still patches it.
- :class:`ParallelTrainer` — ordered, deterministic fan-out of picklable
  payloads over the pool, with worker telemetry merged back once per
  payload (``trainer.py``).

Used by the Fig. 9 per-point sweep
(:meth:`repro.core.experiment.PTExperiment.sweep_processors`) and the
multi-seed runner (:func:`repro.core.experiment.run_multiseed`).
CRL trains its per-cluster agents in-process, in one lockstep pass.
"""

from repro.parallel.pool import WorkerPool, get_worker_pool, shutdown_worker_pool
from repro.parallel.shm import (
    SharedArrayStore,
    SharedBlobRef,
    get_shared_store,
    release_shared_store,
    resolve_shared,
)
from repro.parallel.trainer import (
    ParallelTrainer,
    merge_worker_metrics,
    merge_worker_spans,
)

__all__ = [
    "ParallelTrainer",
    "SharedArrayStore",
    "SharedBlobRef",
    "WorkerPool",
    "get_shared_store",
    "get_worker_pool",
    "merge_worker_metrics",
    "merge_worker_spans",
    "release_shared_store",
    "resolve_shared",
    "shutdown_worker_pool",
]
