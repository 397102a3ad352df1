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

import numpy as np

from repro.building.dataset import BuildingOperationDataset
from repro.errors import DataError
from repro.transfer.decision import MTLDecisionModel
from repro.transfer.task import TaskModelSet


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
    """

    def __init__(
        self,
        dataset: BuildingOperationDataset,
        model_set: TaskModelSet,
        *,
        clip_negative: bool = True,
    ) -> None:
        self.dataset = dataset
        self.model_set = model_set
        self.clip_negative = bool(clip_negative)

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

    def importance_matrix(self, days) -> np.ndarray:
        """(n_days, n_tasks) importance — task importance over operations."""
        days = np.asarray(days, dtype=int).ravel()
        if days.size == 0:
            raise DataError("days must not be empty")
        return np.vstack([self.importance_for_day(int(day)) for day in days])


def importance_profile(
    dataset: BuildingOperationDataset,
    model_set: TaskModelSet,
    days,
    *,
    clip_negative: bool = True,
) -> np.ndarray:
    """Mean per-task importance over a set of days (the Fig. 2 profile)."""
    evaluator = ImportanceEvaluator(dataset, model_set, clip_negative=clip_negative)
    return evaluator.importance_matrix(days).mean(axis=0)
