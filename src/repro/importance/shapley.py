"""Shapley-value task importance — a principled extension of Definition 1.

The paper's importance is the leave-one-out marginal against the *full*
task set. When tasks overlap (two tasks covering adjacent PLR bands of the
same chiller partially substitute for each other), leave-one-out can
under-credit both. The Shapley value averages a task's marginal
contribution over random coalitions, splitting shared credit fairly; it is
the metric Taskonomy-style task-transfer analyses converge on.

Exact Shapley needs 2^N evaluations; :class:`ShapleyImportanceEvaluator`
uses permutation sampling (Castro et al. 2009): draw random orderings,
walk each ordering accumulating tasks, and credit each task with the
performance delta it causes on arrival. Unbiased, with variance shrinking
as 1/sqrt(n_permutations).

Every coalition is scored from the day's per-building
:class:`~repro.transfer.decision.CopTable`: the COPs are predicted once
from the full task set, and a coalition's value sets the keys of every
task outside it to nameplate. No coalition makes a prediction of its own.

A cross-permutation (and cross-call, per day) coalition-value cache
removes repeated H evaluations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.building.dataset import BuildingOperationDataset
from repro.errors import ConfigurationError
from repro.transfer.decision import CopTable, MTLDecisionModel
from repro.transfer.task import TaskModelSet
from repro.utils.rng import as_rng


def _coalition_value(
    tables: Sequence[CopTable], task_ids: Sequence[int], coalition: list[int], cache: dict
) -> float:
    """H of the coalition: every task outside it at nameplate COP.

    The empty coalition is all-nameplate sequencing.
    """
    key = frozenset(coalition)
    cached = cache.get(key)
    if cached is not None:
        return cached
    dropped = [task_id for task_id in task_ids if task_id not in key]
    value = float(np.mean([table.performance(dropped) for table in tables]))
    cache[key] = value
    return value


def _permutation_marginals(
    tables: Sequence[CopTable],
    task_ids: Sequence[int],
    orders: list[np.ndarray],
    cache: dict,
) -> np.ndarray:
    """(len(orders), n_tasks) marginal-contribution rows, one per ordering."""
    rows = np.zeros((len(orders), len(task_ids)))
    for row, order in enumerate(orders):
        coalition: list[int] = []
        previous = _coalition_value(tables, task_ids, coalition, cache)
        for position in order:
            coalition = coalition + [task_ids[position]]
            current = _coalition_value(tables, task_ids, coalition, cache)
            rows[row, position] = current - previous
            previous = current
    return rows


class ShapleyImportanceEvaluator:
    """Permutation-sampled Shapley importance over the decision function.

    Parameters
    ----------
    dataset, model_set:
        The generated pipeline objects (as for
        :class:`~repro.importance.importance.ImportanceEvaluator`).
    n_permutations:
        Sampled orderings; the estimator averages marginals over them.
    seed:
        Permutation sampling seed.
    """

    def __init__(
        self,
        dataset: BuildingOperationDataset,
        model_set: TaskModelSet,
        *,
        n_permutations: int = 8,
        seed=None,
    ) -> None:
        if n_permutations < 1:
            raise ConfigurationError(f"n_permutations must be >= 1, got {n_permutations}")
        self.dataset = dataset
        self.model_set = model_set
        self.n_permutations = int(n_permutations)
        self._rng = as_rng(seed)
        #: Cross-permutation, cross-call coalition-value memo, per day.
        self._value_caches: dict[int, dict] = {}
        #: The day's per-building COP tables, shared by every coalition.
        self._tables: dict[int, list[CopTable]] = {}

    # ------------------------------------------------------------------
    def _coalition_value(self, task_ids: list[int], day: int, cache: dict) -> float:
        """H of the coalition — kept public-ish for the efficiency-axiom tests."""
        return _coalition_value(
            self._tables_for(day), self.model_set.task_ids, list(task_ids), cache
        )

    def _tables_for(self, day: int) -> list[CopTable]:
        if len(self._tables) > 64:  # bound cross-call growth
            self._tables.clear()
        tables = self._tables.get(int(day))
        if tables is None:
            decision = MTLDecisionModel(self.dataset, self.model_set)
            tables = self._tables[int(day)] = decision.cop_tables(int(day))
        return tables

    def _cache_for(self, day: int) -> dict:
        if len(self._value_caches) > 64:  # bound cross-call growth
            self._value_caches.clear()
        return self._value_caches.setdefault(int(day), {})

    def importance_for_day(self, day: int) -> np.ndarray:
        """Shapley importance per task id (order of ``model_set.task_ids``)."""
        n_tasks = len(self.model_set.task_ids)
        orders = [self._rng.permutation(n_tasks) for _ in range(self.n_permutations)]
        marginals = _permutation_marginals(
            self._tables_for(day), self.model_set.task_ids, orders, self._cache_for(day)
        )
        return marginals.sum(axis=0) / self.n_permutations


def compare_importance_metrics(
    dataset: BuildingOperationDataset,
    model_set: TaskModelSet,
    day: int,
    *,
    n_permutations: int = 6,
    seed=None,
) -> dict[str, np.ndarray]:
    """Leave-one-out (Definition 1) vs Shapley importance for one day."""
    from repro.importance.importance import ImportanceEvaluator

    loo = ImportanceEvaluator(dataset, model_set).importance_for_day(day)
    shapley = ShapleyImportanceEvaluator(
        dataset, model_set, n_permutations=n_permutations, seed=seed
    ).importance_for_day(day)
    return {"leave_one_out": loo, "shapley": shapley}
