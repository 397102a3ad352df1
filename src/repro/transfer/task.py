"""Learning-task wrappers shared by the MTL strategies.

A :class:`LearningTask` pairs the raw :class:`~repro.building.dataset.TaskData`
with a fitted predictor; a :class:`TaskModelSet` is the θ of the paper — the
collection of per-task model parameters that both the decision function
H(J; θ) and the importance metric operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.building.dataset import TaskData
from repro.errors import DataError, NotFittedError


@dataclass
class LearningTask:
    """One task j: its data plus the fitted model θ_j.

    ``model`` may be any object with ``predict(X) -> array``; ``None`` means
    the task has not been trained (or was deliberately dropped, which is how
    leave-one-out importance evaluation represents J \\ {j}).
    """

    data: TaskData
    model: object | None = None

    @property
    def task_id(self) -> int:
        return self.data.task_id

    @property
    def is_fitted(self) -> bool:
        return self.model is not None

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise NotFittedError(f"task {self.task_id} has no fitted model")
        return np.asarray(self.model.predict(X), dtype=float)


class TaskModelSet:
    """θ = {θ_j}: the fitted models of a task set, indexable by task id."""

    def __init__(self, tasks: Iterable[LearningTask]) -> None:
        self._tasks: dict[int, LearningTask] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise DataError(f"duplicate task id {task.task_id}")
            self._tasks[task.task_id] = task
        if not self._tasks:
            raise DataError("TaskModelSet must contain at least one task")
        #: (building, chiller) -> its tasks, in set order, for :meth:`lookup`.
        self._by_chiller: dict[tuple[int, int], list[LearningTask]] = {}
        for task in self._tasks.values():
            key = (task.data.building_id, task.data.chiller_id)
            self._by_chiller.setdefault(key, []).append(task)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[LearningTask]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def get(self, task_id: int) -> LearningTask | None:
        return self._tasks.get(task_id)

    @property
    def task_ids(self) -> list[int]:
        return sorted(self._tasks)

    def without(self, task_id: int) -> "TaskModelSet":
        """J \\ {j}: a view lacking one task (for Definition 1)."""
        if task_id not in self._tasks:
            raise DataError(f"task {task_id} not in this set")
        remaining = [t for i, t in self._tasks.items() if i != task_id]
        if not remaining:
            raise DataError("cannot drop the only task in the set")
        return TaskModelSet(remaining)

    def restricted_to(self, task_ids: Iterable[int]) -> "TaskModelSet":
        """Subset view containing only ``task_ids`` (allocation outcomes)."""
        wanted = set(task_ids)
        members = [t for i, t in self._tasks.items() if i in wanted]
        if not members:
            raise DataError("restriction produced an empty task set")
        return TaskModelSet(members)

    def lookup(self, building_id: int, chiller_id: int, plr: float) -> LearningTask | None:
        """The task covering (chiller, PLR band), or None if absent/dropped."""
        for task in self._by_chiller.get((building_id, chiller_id), ()):
            low, high = task.data.band
            if low <= plr < high:
                return task
        return None
