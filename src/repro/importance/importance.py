"""Leave-one-out task importance — the paper's Definition 1.

    I_j = H(J; θ) − H(J \\ {j}; θ \\ {θ_j})

Importance is evaluated per decision epoch (day): the decision function is
scored with the full task set and again with task j excluded (its COP
predictions fall back to the nameplate estimate). Since H averages
per-building scores and a task only informs its own building's sequencing,
dropping task j can only change that building's term.

Each building-day's COPs are predicted once, from the full task set, into a
:class:`~repro.transfer.decision.CopTable`. Dropping task j recomputes only
j's predictions — they become nameplate COPs — and re-scores only the
scenarios that visit one of them; every other prediction, true power and
scenario score is shared by all the leave-one-out evaluations of the day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.building.dataset import BuildingOperationDataset
from repro.errors import ConfigurationError, DataError
from repro.parallel import (
    ParallelTrainer,
    get_shared_store,
    get_worker_pool,
    resolve_shared,
)
from repro.transfer.decision import MTLDecisionModel
from repro.transfer.task import TaskModelSet

#: Rough serial cost of one leave-one-out day evaluation (measured 6-10 ms
#: for 2-3 buildings of 29-48 tasks on a 2-vCPU Xeon); feeds the pool's
#: work-vs-overhead fan-out decision.
EST_LOO_S_PER_DAY = 0.01


@dataclass(frozen=True)
class _DayShard:
    """Picklable payload: evaluate a contiguous chunk of days in a worker.

    ``dataset``/``model_set`` are usually
    :class:`~repro.parallel.shm.SharedBlobRef` handles — the pipeline
    objects are pickled once into shared memory, not once per shard.
    """

    dataset: object
    model_set: object
    days: tuple[int, ...]
    clip_negative: bool


def _evaluate_day_shard(shard: _DayShard) -> list[np.ndarray]:
    """Leave-one-out importance for each day in the shard (worker fn)."""
    evaluator = ImportanceEvaluator(
        resolve_shared(shard.dataset),
        resolve_shared(shard.model_set),
        clip_negative=shard.clip_negative,
    )
    return [evaluator.importance_for_day(int(day)) for day in shard.days]


class ImportanceEvaluator:
    """Computes per-task importance for one or many decision epochs.

    Parameters
    ----------
    dataset:
        Generated building dataset.
    model_set:
        The fitted θ over the full task set J.
    clip_negative:
        The raw difference can be slightly negative when a noisy task
        actively hurts decisions; the paper treats importance as a
        non-negative profit (knapsack item value), so negatives are clipped
        to zero by default. Pass ``False`` to study negative transfer.
    jobs:
        Worker processes for :meth:`importance_matrix`: days are
        independent, so they shard across the persistent pool (the
        dataset/model set travel via shared memory). Any ``jobs`` value
        produces a byte-identical matrix — each day's vector is computed
        identically and reassembled in day order.
    """

    def __init__(
        self,
        dataset: BuildingOperationDataset,
        model_set: TaskModelSet,
        *,
        clip_negative: bool = True,
        jobs: int = 1,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.dataset = dataset
        self.model_set = model_set
        self.clip_negative = bool(clip_negative)
        self.jobs = int(jobs)

    # ------------------------------------------------------------------
    def importance_for_day(self, day: int) -> np.ndarray:
        """I_j for every task id in ``model_set.task_ids``, for one day."""
        tables = MTLDecisionModel(self.dataset, self.model_set).cop_tables(day)
        full_scores = np.asarray([table.performance() for table in tables])
        n_buildings = full_scores.size
        importances = np.zeros(len(self.model_set))
        for position, task_id in enumerate(self.model_set.task_ids):
            building = self.model_set.get(task_id).data.building_id
            reduced_score = tables[building].performance((task_id,))
            # Only the task's own building term changes in the H average.
            delta = (full_scores[building] - reduced_score) / n_buildings
            importances[position] = max(delta, 0.0) if self.clip_negative else delta
        return importances

    def importance_matrix(self, days, *, jobs: int | None = None) -> np.ndarray:
        """(n_days, n_tasks) importance — task importance over operations.

        With ``jobs > 1`` the days shard across worker processes; each
        shard recomputes its days exactly as the serial loop would, and
        rows are reassembled in day order, so the matrix is byte-identical
        for every ``jobs`` value.
        """
        days = np.asarray(days, dtype=int).ravel()
        if days.size == 0:
            raise DataError("days must not be empty")
        jobs = self.jobs if jobs is None else int(jobs)
        # Pre-check with the pool so degraded runs (single core, small
        # work) skip the shard/share machinery entirely.
        estimated_s = EST_LOO_S_PER_DAY * days.size
        if jobs > 1 and days.size > 1:
            jobs = get_worker_pool().effective_jobs(
                jobs, int(days.size), estimated_cost_s=estimated_s
            )
        if jobs > 1 and days.size > 1:
            shared = get_shared_store()
            dataset_ref = shared.share(f"loo.dataset:{id(self.dataset)}", self.dataset)
            model_ref = shared.share(f"loo.model_set:{id(self.model_set)}", self.model_set)
            shards = [
                _DayShard(
                    dataset=dataset_ref,
                    model_set=model_ref,
                    days=tuple(int(day) for day in chunk),
                    clip_negative=self.clip_negative,
                )
                for chunk in np.array_split(days, min(jobs, days.size))
                if chunk.size
            ]
            trainer = ParallelTrainer(
                _evaluate_day_shard,
                jobs=jobs,
                label="importance.loo",
                estimated_cost_s=estimated_s,
            )
            rows: list[np.ndarray] = []
            for shard_rows in trainer.map(shards):
                rows.extend(shard_rows)
            return np.vstack(rows)
        return np.vstack([self.importance_for_day(int(day)) for day in days])


def importance_profile(
    dataset: BuildingOperationDataset,
    model_set: TaskModelSet,
    days,
    *,
    clip_negative: bool = True,
    jobs: int = 1,
) -> np.ndarray:
    """Mean per-task importance over a set of days (the Fig. 2 profile)."""
    evaluator = ImportanceEvaluator(
        dataset, model_set, clip_negative=clip_negative, jobs=jobs
    )
    return evaluator.importance_matrix(days).mean(axis=0)
