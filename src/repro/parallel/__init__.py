"""Process-parallel execution for embarrassingly parallel pipeline stages.

Three layers:

- :class:`WorkerPool` — a lazily created, persistent, fork-safe process
  pool singleton with adaptive serial fallback (``pool.py``).
- :class:`SharedArrayStore` / :class:`SharedBlobRef` — a plasma-style
  shared-memory data plane: publish large read-only inputs once, attach
  zero-copy in every worker (``shm.py``).
- :class:`ParallelTrainer` — ordered, deterministic fan-out of picklable
  payloads over the pool, with worker telemetry merged back idempotently
  (``trainer.py``).

Used by multi-agent CRL training (:meth:`repro.rl.crl.CRLModel.fit`,
:meth:`~repro.rl.crl.CRLModel.warm_online_agents`), the Fig. 9 per-point
sweep (:class:`repro.core.experiment.PTExperiment`), the multi-seed
runner (:func:`repro.core.experiment.run_multiseed`), the serving
dispatcher (:class:`repro.serve.dispatcher.Dispatcher`) and the sharded
fleet runner (:func:`repro.edgesim.shard.run_fleet_sharded`).
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
