"""Dependency-aware task allocation — the paper's stated future work.

Section VII: "those cases ... under multi-task settings but with the
sequential dependency between tasks, are beyond the scope of this paper.
It would be an interesting future work to extend our approach to those
scenarios." This module provides that extension:

- :class:`TaskDependencyGraph` — a DAG of precedence constraints over a
  workload, with cycle detection, topological generations, and
  *importance back-propagation*: a prerequisite inherits the maximum
  importance of its dependents, since skipping it forfeits them.
- :func:`dependency_aware_plan` — wraps any score vector into a plan whose
  dispatch order is a topological sort tie-broken by effective importance,
  so the simulator (with ``dependencies=``) never stalls on an unmet
  precedence.
"""

from __future__ import annotations

from collections import deque
from graphlib import TopologicalSorter
from typing import Iterable, Sequence

import numpy as np

from repro.allocation.base import place_by_scores
from repro.edgesim.node import EdgeNode
from repro.edgesim.simulator import ExecutionPlan
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError


class TaskDependencyGraph:
    """Precedence DAG over task ids: an edge u → v means "u before v"."""

    def __init__(self, task_ids: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> None:
        # Insertion-ordered adjacency both ways: successors iterate in
        # edge-insertion order, which fixes the tie-breaks of
        # ``order_respecting`` and the order of ``violations``.
        self._successors: dict[int, dict[int, None]] = {}
        self._predecessors: dict[int, dict[int, None]] = {}
        for task in task_ids:
            self._successors.setdefault(int(task), {})
            self._predecessors.setdefault(int(task), {})
        for before, after in edges:
            self.add_dependency(int(before), int(after))

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._successors)

    @property
    def n_dependencies(self) -> int:
        return sum(len(successors) for successors in self._successors.values())

    def add_dependency(self, before: int, after: int) -> None:
        """Require ``before`` to complete prior to ``after`` starting."""
        if before not in self._successors or after not in self._successors:
            raise DataError(f"unknown task in dependency ({before} -> {after})")
        if before == after:
            raise ConfigurationError(f"task {before} cannot depend on itself")
        if after in self.ancestors_of(before):
            raise ConfigurationError(
                f"dependency {before} -> {after} would create a cycle"
            )
        self._successors[before][after] = None
        self._predecessors[after][before] = None

    def prerequisites_of(self, task_id: int) -> set[int]:
        """Direct prerequisites of a task."""
        return set(self._adjacent(self._predecessors, task_id))

    def dependents_of(self, task_id: int) -> set[int]:
        """Direct dependents of a task."""
        return set(self._adjacent(self._successors, task_id))

    def ancestors_of(self, task_id: int) -> set[int]:
        """All transitive prerequisites."""
        ancestors: set[int] = set()
        frontier = deque(self._adjacent(self._predecessors, task_id))
        while frontier:
            task = frontier.popleft()
            if task not in ancestors:
                ancestors.add(task)
                frontier.extend(self._predecessors[task])
        return ancestors

    def generations(self) -> list[list[int]]:
        """Topological generations (tasks in one generation are independent)."""
        sorter = TopologicalSorter(self._predecessors)
        sorter.prepare()
        generations = []
        while sorter.is_active():
            ready = sorter.get_ready()
            generations.append(sorted(ready))
            sorter.done(*ready)
        return generations

    @staticmethod
    def _adjacent(adjacency: dict[int, dict[int, None]], task_id: int) -> dict[int, None]:
        if task_id not in adjacency:
            raise DataError(f"The node {task_id} is not in the digraph.")
        return adjacency[task_id]

    # ------------------------------------------------------------------
    def effective_importance(self, importance: np.ndarray) -> np.ndarray:
        """Back-propagate importance through prerequisites.

        A task's effective importance is the maximum of its own importance
        and the effective importance of any dependent: dropping a
        prerequisite forfeits everything downstream of it, so for
        allocation purposes it is at least as valuable as its most valuable
        descendant.
        """
        importance = np.asarray(importance, dtype=float).ravel()
        if importance.size != self.n_tasks:
            raise DataError(
                f"importance has {importance.size} entries for {self.n_tasks} tasks"
            )
        index = {task: i for i, task in enumerate(sorted(self._successors))}
        effective = importance.copy()
        for task in reversed(list(TopologicalSorter(self._predecessors).static_order())):
            for prerequisite in self._predecessors[task]:
                i, j = index[prerequisite], index[task]
                effective[i] = max(effective[i], effective[j])
        return effective

    def order_respecting(self, priorities: np.ndarray) -> list[int]:
        """Topological order choosing the highest-priority ready task first."""
        priorities = np.asarray(priorities, dtype=float).ravel()
        if priorities.size != self.n_tasks:
            raise DataError(
                f"priorities has {priorities.size} entries for {self.n_tasks} tasks"
            )
        index = {task: i for i, task in enumerate(sorted(self._successors))}
        in_degree = {task: len(prerequisites) for task, prerequisites in self._predecessors.items()}
        ready = [task for task, degree in in_degree.items() if degree == 0]
        order: list[int] = []
        while ready:
            ready.sort(key=lambda task: -priorities[index[task]])
            task = ready.pop(0)
            order.append(task)
            for dependent in self._successors[task]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != self.n_tasks:
            raise ConfigurationError("dependency graph contains a cycle")
        return order

    def violations(self, completion_order: Sequence[int]) -> list[tuple[int, int]]:
        """(prerequisite, dependent) pairs violated by a completion order."""
        position = {task: i for i, task in enumerate(completion_order)}
        out = []
        for before, dependents in self._successors.items():
            for after in dependents:
                if before in position and after in position and position[before] > position[after]:
                    out.append((before, after))
                if after in position and before not in position:
                    out.append((before, after))
        return out


def dependency_aware_plan(
    tasks: Sequence[SimTask],
    nodes: Sequence[EdgeNode],
    scores: np.ndarray,
    dependencies: TaskDependencyGraph,
    *,
    time_limit_s: float | None = None,
    allocation_time: float = 0.0,
    label: str = "dep-aware",
) -> ExecutionPlan:
    """Score-ordered placement whose dispatch order respects the DAG.

    Scores are first back-propagated (:meth:`effective_importance`), then
    placement runs as in :func:`place_by_scores`, and finally the dispatch
    sequence is reordered topologically with the effective score as the
    tie-break — so no task ships before its prerequisites.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    effective = dependencies.effective_importance(scores)
    base = place_by_scores(
        tasks,
        nodes,
        effective,
        time_limit_s=time_limit_s,
        allocation_time=allocation_time,
        label=label,
    )
    node_of = dict(base.assignments)
    order = dependencies.order_respecting(effective)
    assignments = tuple((task_id, node_of[task_id]) for task_id in order if task_id in node_of)
    return ExecutionPlan(
        assignments=assignments, allocation_time=allocation_time, label=label
    )
