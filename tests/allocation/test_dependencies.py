"""Dependency-aware allocation (the paper's future-work extension)."""

import numpy as np
import pytest

from repro.allocation.dependencies import TaskDependencyGraph, dependency_aware_plan
from repro.edgesim.network import StarNetwork
from repro.edgesim.node import make_node
from repro.edgesim.simulator import EdgeSimulator
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError


@pytest.fixture
def tasks():
    return [
        SimTask(i, input_mb=20.0, memory_mb=10.0, true_importance=imp)
        for i, imp in enumerate([0.05, 0.9, 0.3, 0.6, 0.1])
    ]


@pytest.fixture
def graph(tasks):
    # 0 -> 1 (the cheap prerequisite of the most important task), 2 -> 3.
    return TaskDependencyGraph([t.task_id for t in tasks], [(0, 1), (2, 3)])


class TestGraph:
    def test_counts(self, graph):
        assert graph.n_tasks == 5
        assert graph.n_dependencies == 2

    def test_cycle_rejected(self, graph):
        with pytest.raises(ConfigurationError, match="cycle"):
            graph.add_dependency(1, 0)
        assert graph.n_dependencies == 2  # rolled back

    def test_self_dependency_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            graph.add_dependency(2, 2)

    def test_unknown_task_rejected(self, graph):
        with pytest.raises(DataError):
            graph.add_dependency(0, 99)

    @pytest.mark.parametrize("query", ["prerequisites_of", "dependents_of", "ancestors_of"])
    def test_unknown_task_query_rejected(self, graph, query):
        with pytest.raises(DataError, match="The node 99 is not in the digraph"):
            getattr(graph, query)(99)

    def test_relations(self, graph):
        assert graph.prerequisites_of(1) == {0}
        assert graph.dependents_of(0) == {1}
        assert graph.ancestors_of(3) == {2}

    def test_generations_are_layered(self, graph):
        generations = graph.generations()
        assert generations[0] == [0, 2, 4]
        assert generations[1] == [1, 3]


class TestEffectiveImportance:
    def test_prerequisite_inherits_dependent_value(self, graph):
        importance = np.array([0.05, 0.9, 0.3, 0.6, 0.1])
        effective = graph.effective_importance(importance)
        assert effective[0] == pytest.approx(0.9)  # inherits task 1's value
        assert effective[2] == pytest.approx(0.6)  # inherits task 3's value
        assert effective[4] == pytest.approx(0.1)  # leaf unchanged

    def test_transitive_propagation(self):
        graph = TaskDependencyGraph([0, 1, 2], [(0, 1), (1, 2)])
        effective = graph.effective_importance(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(effective, 1.0)

    def test_size_mismatch(self, graph):
        with pytest.raises(DataError):
            graph.effective_importance(np.ones(3))


class TestOrderRespecting:
    def test_topological_and_priority(self, graph):
        priorities = np.array([0.05, 0.9, 0.3, 0.6, 0.1])
        order = graph.order_respecting(priorities)
        assert order.index(0) < order.index(1)
        assert order.index(2) < order.index(3)

    def test_violations_detection(self, graph):
        assert graph.violations([1, 0, 2, 3, 4]) == [(0, 1)]
        assert graph.violations([0, 1, 2, 3, 4]) == []

    def test_missing_prerequisite_is_violation(self, graph):
        assert (0, 1) in graph.violations([1, 2, 3])


class TestDependencyAwarePlan:
    def test_plan_order_respects_dag(self, tasks, graph):
        nodes = [make_node("laptop", 0), make_node("rpi-b", 1)]
        scores = np.array([t.true_importance for t in tasks])
        plan = dependency_aware_plan(tasks, nodes, scores, graph, time_limit_s=1e9)
        order = [task_id for task_id, _ in plan.assignments]
        assert graph.violations(order) == []

    def test_cheap_prerequisite_dispatched_before_valuable_dependent(self, tasks, graph):
        nodes = [make_node("laptop", 0)]
        scores = np.array([t.true_importance for t in tasks])
        plan = dependency_aware_plan(tasks, nodes, scores, graph, time_limit_s=1e9)
        order = [task_id for task_id, _ in plan.assignments]
        # Task 0 (importance 0.05) must lead because task 1 (0.9) needs it.
        assert order[0] == 0
        assert order[1] == 1

    def test_simulator_defers_blocked_tasks(self, tasks, graph):
        """With dependencies= the node queue skips not-yet-ready tasks."""
        nodes = [make_node("laptop", 0), make_node("rpi-b", 1)]
        # Adversarial plan: dependent dispatched before its prerequisite.
        plan_order = [(1, 0), (0, 1), (3, 0), (2, 1), (4, 0)]
        from repro.edgesim.simulator import ExecutionPlan as EP

        plan = EP(tuple(plan_order))
        simulator = EdgeSimulator(nodes, StarNetwork(), quality_threshold=1.0)
        result = simulator.run(tasks, plan, dependencies=graph)
        order = sorted(result.completion_times, key=result.completion_times.get)
        assert graph.violations(order) == []
        assert result.gate_crossed

    def test_unschedulable_prerequisite_blocks_dependent(self, tasks, graph):
        """If a prerequisite is never planned, its dependent never runs —
        and the simulation terminates cleanly with the gate uncrossed."""
        nodes = [make_node("laptop", 0)]
        from repro.edgesim.simulator import ExecutionPlan as EP

        # Plan omits task 0 (prerequisite of 1) entirely.
        plan = EP(((1, 0), (2, 0), (3, 0), (4, 0)))
        simulator = EdgeSimulator(nodes, StarNetwork(), quality_threshold=0.99)
        result = simulator.run(tasks, plan, dependencies=graph)
        assert 1 not in result.completion_times
        assert not result.gate_crossed

    def test_simulated_completion_respects_dependencies(self, tasks, graph):
        nodes = [make_node("laptop", 0), make_node("rpi-b", 1)]
        scores = np.array([t.true_importance for t in tasks])
        plan = dependency_aware_plan(tasks, nodes, scores, graph, time_limit_s=1e9)
        simulator = EdgeSimulator(nodes, StarNetwork(), quality_threshold=1.0)
        result = simulator.run(tasks, plan)
        completion_order = sorted(result.completion_times, key=result.completion_times.get)
        # Single-channel dispatch in topological order keeps transfer (and
        # hence completion on a shared-priority testbed) consistent.
        assert graph.violations(completion_order) == []
