"""The edge discrete-event simulator and its Processing Time metric.

Execution model of one decision epoch:

1. The controller spends ``allocation_time`` seconds computing the plan
   (measured or modeled by the allocator — exact solvers pay here, trained
   data-driven policies barely do).
2. Task inputs are shipped to their nodes over the shared WiFi channel in
   plan order (transfers serialize — WiFi is one medium).
3. Each node executes its queued tasks serially at its per-bit rate.
4. Results return to the controller over the same channel.
5. After every completed task the controller checks the **quality gate**:
   once the cumulative *true* importance of completed tasks reaches
   ``quality_threshold`` × (total true importance of the epoch), the
   aggregated decision is credible and is made. Pending work is cancelled.

Processing Time PT = allocation time + time of the gate-crossing result
(+ a fixed aggregation overhead) — the paper's PT = t_s − t_c.

A plan that orders truly important tasks first crosses the gate after a
handful of transfers and executions; an importance-blind plan ships most
of the input data before the gate opens. That, plus device matching, is
the entire mechanism behind the paper's Figs. 9-11 gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.edgesim.events import EventQueue
from repro.edgesim.network import StarNetwork
from repro.edgesim.node import EdgeNode
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError, SimulationError
from repro.telemetry import get_registry, span


@dataclass(frozen=True)
class ExecutionPlan:
    """Ordered dispatch plan: (task_id, node_id) pairs plus planning cost.

    Order matters: it is the priority in which inputs are shipped. Tasks
    may appear at most once; tasks absent from the plan are never run.
    """

    assignments: tuple[tuple[int, int], ...]
    allocation_time: float = 0.0
    label: str = "plan"

    def __post_init__(self) -> None:
        seen = set()
        for task_id, _node_id in self.assignments:
            if task_id in seen:
                raise DataError(f"task {task_id} appears twice in the plan")
            seen.add(task_id)
        if self.allocation_time < 0:
            raise ConfigurationError(
                f"allocation_time must be >= 0, got {self.allocation_time}"
            )

    def __len__(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated epoch.

    Attributes
    ----------
    processing_time:
        PT = t_s − t_c in seconds (inf if the gate was never crossed).
    tasks_executed:
        Number of tasks whose results reached the controller before t_s.
    importance_achieved:
        Cumulative true importance at t_s.
    gate_crossed:
        Whether the credibility threshold was reached.
    completion_times:
        task_id -> result-arrival time for completed tasks.
    completion_nodes:
        task_id -> node whose result was counted. Differs from the plan's
        node for tasks re-dispatched after a failure.
    """

    processing_time: float
    tasks_executed: int
    importance_achieved: float
    gate_crossed: bool
    completion_times: dict[int, float] = field(default_factory=dict)
    completion_nodes: dict[int, int] = field(default_factory=dict)


class EdgeSimulator:
    """Deterministic DES over a node set and a shared-channel network."""

    #: Fixed decision-aggregation overhead once the gate is crossed.
    AGGREGATION_TIME = 0.05

    def __init__(
        self,
        nodes: Sequence[EdgeNode],
        network: StarNetwork,
        *,
        quality_threshold: float = 0.8,
    ) -> None:
        if not nodes:
            raise ConfigurationError("simulator needs at least one node")
        if not 0.0 < quality_threshold <= 1.0:
            raise ConfigurationError(
                f"quality_threshold must be in (0, 1], got {quality_threshold}"
            )
        self.nodes = {node.node_id: node for node in nodes}
        if len(self.nodes) != len(nodes):
            raise ConfigurationError("node ids must be unique")
        self.network = network
        self.quality_threshold = float(quality_threshold)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SimTask],
        plan: ExecutionPlan,
        *,
        failures: dict[int, float] | None = None,
        dependencies=None,
    ) -> SimResult:
        """Simulate one epoch under ``plan``; returns the PT result.

        ``failures`` maps node id -> absolute failure time (seconds). A
        failed node loses its queued and in-flight work; the controller
        re-dispatches those tasks (a fresh input transfer) to the fastest
        surviving node, at the head of the transfer queue since they were
        already prioritized. With every node failed, remaining tasks are
        lost and the gate may never close (PT = inf).

        ``dependencies`` is an optional precedence structure exposing
        ``prerequisites_of(task_id) -> set[int]`` (e.g.
        :class:`repro.allocation.dependencies.TaskDependencyGraph`). A task
        only starts executing once every prerequisite's result has reached
        the controller, so completion order respects the DAG even under
        failure-driven re-dispatch.
        """
        with span("edgesim.run", plan=plan.label, tasks=len(tasks)):
            result = self._run(tasks, plan, failures=failures, dependencies=dependencies)
        registry = get_registry()
        registry.counter(
            "repro_edgesim_runs_total", help="Simulated decision epochs", plan=plan.label
        ).inc()
        registry.counter(
            "repro_edgesim_tasks_executed_total",
            help="Tasks whose results reached the controller before the decision",
            plan=plan.label,
        ).inc(result.tasks_executed)
        if result.gate_crossed:
            registry.histogram(
                "repro_edgesim_pt_seconds",
                help="Processing Time PT = t_s - t_c (simulated seconds)",
                plan=plan.label,
            ).observe(result.processing_time)
        else:
            registry.counter(
                "repro_edgesim_gate_misses_total",
                help="Epochs whose quality gate never closed (PT = inf)",
                plan=plan.label,
            ).inc()
        return result

    def _run(
        self,
        tasks: Sequence[SimTask],
        plan: ExecutionPlan,
        *,
        failures: dict[int, float] | None = None,
        dependencies=None,
    ) -> SimResult:
        task_by_id = {task.task_id: task for task in tasks}
        for task_id, node_id in plan.assignments:
            if task_id not in task_by_id:
                raise DataError(f"plan references unknown task {task_id}")
            if node_id not in self.nodes:
                raise DataError(f"plan references unknown node {node_id}")
        failures = dict(failures or {})
        for node_id, fail_time in failures.items():
            if node_id not in self.nodes:
                raise DataError(f"failure references unknown node {node_id}")
            if fail_time < 0:
                raise DataError(f"failure time must be >= 0, got {fail_time}")

        total_importance = float(sum(t.true_importance for t in task_by_id.values()))
        gate_target = self.quality_threshold * total_importance

        queue = EventQueue()
        # Two transfer queues: results are short control frames and take
        # priority over queued (not in-flight) input transfers; otherwise a
        # completed task's result would wait behind every remaining input
        # and the decision gate could never close early. On a shared medium
        # (WiFi star) all transfers serialize through one link; on a
        # switched network each worker has a dedicated full-duplex link.
        pending_inputs: list[tuple[int, int]] = list(plan.assignments)
        pending_results: list[tuple[int, int]] = []
        shared_medium = bool(getattr(self.network, "shared_medium", True))
        link_busy: dict[object, bool] = {}

        def link_of(node_id: int, kind: str):
            # Shared medium: one half-duplex radio for everything. Switched:
            # a full-duplex link per node — inputs (downlink) and results
            # (uplink) are independent channels.
            if shared_medium:
                return "shared"
            return (node_id, kind)
        node_queues: dict[int, list[int]] = {node_id: [] for node_id in self.nodes}
        node_busy: dict[int, bool] = {node_id: False for node_id in self.nodes}
        node_running: dict[int, int | None] = {node_id: None for node_id in self.nodes}
        alive: set[int] = set(self.nodes)
        achieved = 0.0
        completed: dict[int, float] = {}
        completed_on: dict[int, int] = {}
        decision_time: float | None = None
        cancelled = False

        def fastest_alive() -> int | None:
            survivors = [self.nodes[n] for n in alive]
            if not survivors:
                return None
            return min(survivors, key=lambda node: node.compute_s_per_bit).node_id

        def start_next_transfer() -> None:
            """Start every queue-head transfer whose link is free.

            Results before inputs (priority); within each queue, FIFO per
            link. On a shared medium at most one transfer is in flight.
            """
            for queue_list, kind in ((pending_results, "result"), (pending_inputs, "input")):
                if kind == "input" and cancelled:
                    continue
                index = 0
                while index < len(queue_list):
                    task_id, node_id = queue_list[index]
                    link = link_of(node_id, kind)
                    if link_busy.get(link, False):
                        index += 1
                        continue
                    queue_list.pop(index)
                    link_busy[link] = True
                    task = task_by_id[task_id]
                    size = task.result_mb if kind == "result" else task.input_mb
                    queue.schedule(
                        self.network.transfer_time(size),
                        f"{kind}_arrived",
                        (task_id, node_id),
                    )

        def ready(task_id: int) -> bool:
            if dependencies is None:
                return True
            return all(p in completed for p in dependencies.prerequisites_of(task_id))

        def start_next_execution(node_id: int) -> None:
            if node_id not in alive:
                return
            if node_busy[node_id] or cancelled or not node_queues[node_id]:
                return
            # First dependency-ready task in queue order; defer the rest.
            position = next(
                (i for i, t in enumerate(node_queues[node_id]) if ready(t)), None
            )
            if position is None:
                return
            task_id = node_queues[node_id].pop(position)
            task = task_by_id[task_id]
            node_busy[node_id] = True
            node_running[node_id] = task_id
            queue.schedule(
                self.nodes[node_id].execution_time(task.input_mb),
                "execution_done",
                (task_id, node_id),
            )

        def handle(event) -> None:
            nonlocal achieved, decision_time, cancelled
            if event.kind == "input_arrived":
                task_id, node_id = event.payload
                link_busy[link_of(node_id, "input")] = False
                if node_id in alive:
                    node_queues[node_id].append(task_id)
                    start_next_execution(node_id)
                else:
                    # Input landed on a dead node: re-dispatch to a survivor.
                    target = fastest_alive()
                    if target is not None and not cancelled:
                        pending_inputs.insert(0, (task_id, target))
                start_next_transfer()
            elif event.kind == "execution_done":
                task_id, node_id = event.payload
                if node_id not in alive or node_running[node_id] != task_id:
                    return  # stale event from before the node failed
                node_busy[node_id] = False
                node_running[node_id] = None
                pending_results.append((task_id, node_id))
                start_next_transfer()
                start_next_execution(node_id)
            elif event.kind == "node_failed":
                node_id = event.payload
                if node_id not in alive:
                    return
                alive.discard(node_id)
                lost = list(node_queues[node_id])
                node_queues[node_id].clear()
                if node_running[node_id] is not None:
                    lost.insert(0, node_running[node_id])
                    node_running[node_id] = None
                # Results still sitting on the dead node are lost with it;
                # their tasks must be recomputed elsewhere.
                stranded = [t for t, n in pending_results if n == node_id]
                pending_results[:] = [(t, n) for t, n in pending_results if n != node_id]
                lost = stranded + lost
                node_busy[node_id] = False
                target = fastest_alive()
                if target is not None and not cancelled:
                    # Re-dispatch lost work at the head of the queue; it was
                    # already prioritized once.
                    for position, task_id in enumerate(lost):
                        pending_inputs.insert(position, (task_id, target))
                # Re-target queued transfers headed to the dead node.
                if target is not None:
                    for position, (task_id, destination) in enumerate(pending_inputs):
                        if destination == node_id:
                            pending_inputs[position] = (task_id, target)
                start_next_transfer()
            elif event.kind == "result_arrived":
                task_id, node_id = event.payload
                link_busy[link_of(node_id, "result")] = False
                if decision_time is None:
                    # Results landing after the decision are stragglers that
                    # were already in flight; they did not contribute to PT
                    # or to the decision, so they are not counted.
                    completed[task_id] = queue.now
                    completed_on[task_id] = node_id
                    achieved += task_by_id[task_id].true_importance
                    if achieved >= gate_target - 1e-12:
                        decision_time = queue.now + self.AGGREGATION_TIME
                        cancelled = True
                        pending_inputs.clear()
                    elif dependencies is not None:
                        # A new completion may unblock queued dependents.
                        for waiting_node in alive:
                            start_next_execution(waiting_node)
                start_next_transfer()
            else:
                raise SimulationError(f"unknown event kind {event.kind!r}")

        queue.now = plan.allocation_time
        for node_id, fail_time in failures.items():
            queue.schedule_at(max(fail_time, queue.now), "node_failed", node_id)
        start_next_transfer()
        queue.run(handle)

        if decision_time is not None:
            processing_time = decision_time
            gate_crossed = True
        else:
            processing_time = float("inf")
            gate_crossed = False
        return SimResult(
            processing_time=processing_time,
            tasks_executed=len(completed),
            importance_achieved=float(achieved),
            gate_crossed=gate_crossed,
            completion_times=completed,
            completion_nodes=completed_on,
        )
