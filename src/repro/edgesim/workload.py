"""Simulation workload: the per-epoch task population.

Each decision epoch presents the system with N machine-learning tasks to
(re)train/evaluate on the edge. A :class:`SimTask` carries the input data
size (what must be shipped to a node and ground through its CPU), its
memory footprint, and two importance values: the *true* importance (ground
truth from the importance evaluator — what decision quality actually
depends on) and the allocator's *estimated* importance (what the policy
acts on). The gap between them is what separates DCTA from CRL from the
importance-blind baselines.

Unit note: ``input_mb`` / ``result_mb`` are **megabits** (the transfer
unit of :mod:`repro.edgesim.network`); ``memory_mb`` is megabytes of RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.rng import as_rng, derive_seeds


@dataclass(frozen=True)
class SimTask:
    """One task instance inside the edge simulation.

    Attributes
    ----------
    task_id:
        Dense index within the epoch.
    input_mb:
        Input data size in megabits (drives both transfer and compute).
    memory_mb:
        Resource demand v_j against node capacity V_p.
    true_importance:
        Ground-truth I_j (visible to the simulator's quality gate only).
    est_importance:
        The allocator's estimate of I_j (what policies may act on);
        defaults to NaN for policies that never estimate.
    result_mb:
        Size of the result returned to the controller.
    """

    task_id: int
    input_mb: float
    memory_mb: float
    true_importance: float
    est_importance: float = float("nan")
    result_mb: float = 0.1

    def __post_init__(self) -> None:
        if self.input_mb <= 0:
            raise ConfigurationError(f"input_mb must be > 0, got {self.input_mb}")
        if self.memory_mb <= 0:
            raise ConfigurationError(f"memory_mb must be > 0, got {self.memory_mb}")
        if self.true_importance < 0:
            raise ConfigurationError(
                f"true_importance must be >= 0, got {self.true_importance}"
            )

    def with_estimate(self, estimate: float) -> "SimTask":
        return replace(self, est_importance=float(estimate))


class WorkloadGenerator:
    """Draws epoch workloads with long-tailed true importance.

    Parameters
    ----------
    n_tasks:
        Tasks per epoch (the paper uses 50).
    mean_input_mb:
        Mean input size; sizes are lognormal around it (heavy-ish tail, as
        sensor archives are).
    pareto_shape:
        Shape of the Pareto importance distribution (lower = longer tail).
    mean_memory_mb:
        Mean memory footprint.
    """

    def __init__(
        self,
        n_tasks: int = 50,
        mean_input_mb: float = 500.0,
        *,
        pareto_shape: float = 0.7,
        mean_memory_mb: float = 150.0,
        seed=None,
    ) -> None:
        if n_tasks < 1:
            raise ConfigurationError(f"n_tasks must be >= 1, got {n_tasks}")
        if mean_input_mb <= 0 or mean_memory_mb <= 0:
            raise ConfigurationError("mean sizes must be > 0")
        if pareto_shape <= 0:
            raise ConfigurationError(f"pareto_shape must be > 0, got {pareto_shape}")
        self.n_tasks = int(n_tasks)
        self.mean_input_mb = float(mean_input_mb)
        self.pareto_shape = float(pareto_shape)
        self.mean_memory_mb = float(mean_memory_mb)
        self._rng = as_rng(seed)

    def draw(self) -> list[SimTask]:
        """One epoch's task population."""
        rng = self._rng
        sigma = 0.5
        sizes = rng.lognormal(mean=np.log(self.mean_input_mb) - sigma**2 / 2, sigma=sigma, size=self.n_tasks)
        memory = rng.lognormal(
            mean=np.log(self.mean_memory_mb) - 0.18, sigma=0.6, size=self.n_tasks
        )
        importance = rng.pareto(self.pareto_shape, size=self.n_tasks) + 1e-3
        importance = importance / importance.max()
        return [
            SimTask(
                task_id=i,
                input_mb=float(sizes[i]),
                memory_mb=float(memory[i]),
                true_importance=float(importance[i]),
            )
            for i in range(self.n_tasks)
        ]

    def draw_with_importance(self, importance: np.ndarray) -> list[SimTask]:
        """An epoch whose true importance vector is supplied externally
        (e.g., produced by the building-pipeline importance evaluator)."""
        importance = np.asarray(importance, dtype=float).ravel()
        if importance.size != self.n_tasks:
            raise DataError(
                f"importance has {importance.size} entries, expected {self.n_tasks}"
            )
        tasks = self.draw()
        return [replace(t, true_importance=float(max(importance[i], 0.0))) for i, t in enumerate(tasks)]


class FleetWorkload:
    """Columnar, chunked task-attribute generator for open-loop fleet runs.

    Where :class:`WorkloadGenerator` materializes one epoch of
    :class:`SimTask` objects, ``FleetWorkload`` hands the fleet engine raw
    numpy columns chunk-by-chunk, so a run over millions of arrivals never
    holds more than one chunk of task attributes in memory. Distributions
    match :class:`WorkloadGenerator` (lognormal sizes, Pareto importance);
    importance is *not* max-normalized per chunk since the stream has no
    epoch boundary.

    Sizes are megabits (see module note); fleet runs use a smaller default
    mean than the epoch generator because open-loop tasks model inference /
    incremental-update shipments rather than full retraining archives.

    Each column draws from its own substream derived from the seed, so the
    attribute stream is invariant to how arrivals are partitioned into
    chunks: ``draw_chunk(a)`` then ``draw_chunk(b)`` concatenates to
    exactly ``draw_chunk(a + b)``. The fleet engine leans on this to keep
    results independent of its refill chunk size.
    """

    def __init__(
        self,
        mean_input_mbit: float = 40.0,
        *,
        pareto_shape: float = 0.7,
        mean_memory_mb: float = 150.0,
        result_mbit: float = 0.1,
        seed=None,
    ) -> None:
        if mean_input_mbit <= 0 or mean_memory_mb <= 0:
            raise ConfigurationError("mean sizes must be > 0")
        if pareto_shape <= 0:
            raise ConfigurationError(f"pareto_shape must be > 0, got {pareto_shape}")
        if result_mbit < 0:
            raise ConfigurationError(f"result_mbit must be >= 0, got {result_mbit}")
        self.mean_input_mbit = float(mean_input_mbit)
        self.pareto_shape = float(pareto_shape)
        self.mean_memory_mb = float(mean_memory_mb)
        self.result_mbit = float(result_mbit)
        size_seed, memory_seed, importance_seed = derive_seeds(seed, 3)
        self._size_rng = as_rng(size_seed)
        self._memory_rng = as_rng(memory_seed)
        self._importance_rng = as_rng(importance_seed)

    def draw_chunk(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(input_mbit, memory_mb, importance)`` columns for ``n`` tasks."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        sigma = 0.5
        sizes = self._size_rng.lognormal(
            mean=np.log(self.mean_input_mbit) - sigma**2 / 2, sigma=sigma, size=n
        )
        memory = self._memory_rng.lognormal(
            mean=np.log(self.mean_memory_mb) - 0.18, sigma=0.6, size=n
        )
        importance = self._importance_rng.pareto(self.pareto_shape, size=n) + 1e-3
        return sizes, memory, importance
