"""Per-device energy accounting for the edge simulation.

Several of the paper's related works ([11]-[13]) optimize edge energy
instead of (or alongside) latency; this module adds the measurement so the
same experiments can report joules. The model is the standard two-state
one: a device draws ``idle_w`` whenever powered and an additional
``active_w − idle_w`` while executing; the radio draws ``radio_w`` for the
duration of each transfer it carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgesim.node import EdgeNode
from repro.edgesim.simulator import SimResult
from repro.errors import ConfigurationError

#: (idle watts, active watts) per node preset — Raspberry Pi 3 figures are
#: the commonly measured ~1.4 W idle / ~3.7 W loaded; the laptop is a
#: mobile-class machine.
POWER_PRESETS: dict[str, tuple[float, float]] = {
    "rpi-a+": (1.0, 2.5),
    "rpi-b": (1.4, 3.7),
    "rpi-b+": (1.5, 4.0),
    "laptop": (10.0, 45.0),
}

#: Radio power while a transfer is in flight (shared channel), watts.
RADIO_ACTIVE_W = 2.0


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one simulated epoch (joules)."""

    compute_j: float
    idle_j: float
    radio_j: float

    @property
    def total_j(self) -> float:
        return self.compute_j + self.idle_j + self.radio_j


def node_power(node: EdgeNode) -> tuple[float, float]:
    """(idle_w, active_w) for a node, by preset name."""
    try:
        return POWER_PRESETS[node.name]
    except KeyError:
        raise ConfigurationError(
            f"no power preset for node type {node.name!r}; known: {sorted(POWER_PRESETS)}"
        ) from None


def estimate_energy(
    nodes: list[EdgeNode],
    tasks_by_node: dict[int, list[float]],
    result: SimResult,
    *,
    transfer_seconds: float,
) -> EnergyReport:
    """Energy of an epoch from its execution profile.

    Parameters
    ----------
    nodes:
        The testbed devices (all assumed powered for the whole epoch).
    tasks_by_node:
        node_id -> list of *executed* input sizes on that node, in
        megabits (the package-wide size unit; see
        :mod:`repro.edgesim.network`).
    result:
        The epoch's :class:`SimResult` (provides the wall-clock horizon).
    transfer_seconds:
        Total seconds the shared channel spent transferring.
    """
    if result.processing_time == float("inf"):
        raise ConfigurationError("cannot account energy for an epoch that never decided")
    horizon = result.processing_time
    compute = 0.0
    idle = 0.0
    for node in nodes:
        idle_w, active_w = node_power(node)
        executed = tasks_by_node.get(node.node_id, [])
        busy_seconds = sum(node.execution_time(size) for size in executed)
        busy_seconds = min(busy_seconds, horizon)
        compute += (active_w - idle_w) * busy_seconds
        idle += idle_w * horizon
    radio = RADIO_ACTIVE_W * min(transfer_seconds, horizon)
    return EnergyReport(compute_j=compute, idle_j=idle, radio_j=radio)


def energy_of_run(
    nodes: list[EdgeNode],
    tasks,
    plan,
    result: SimResult,
    network,
) -> EnergyReport:
    """Convenience wrapper deriving the execution profile from a plan+result.

    Only tasks whose results actually arrived (``result.completion_times``)
    count as executed; transfer seconds cover their inputs and results.
    Each is charged to the node its result came from
    (``result.completion_nodes``), which differs from the plan's node for a
    task re-dispatched after a failure; the plan only fills in results
    that record no node.
    """
    node_of = dict(plan.assignments)
    node_of.update(result.completion_nodes)
    task_by_id = {task.task_id: task for task in tasks}
    tasks_by_node: dict[int, list[float]] = {}
    transfer_seconds = 0.0
    for task_id in result.completion_times:
        task = task_by_id[task_id]
        node_id = node_of.get(task_id)
        if node_id is None:
            continue
        tasks_by_node.setdefault(node_id, []).append(task.input_mb)
        transfer_seconds += network.transfer_time(task.input_mb)
        transfer_seconds += network.transfer_time(task.result_mb)
    return estimate_energy(
        nodes, tasks_by_node, result, transfer_seconds=transfer_seconds
    )
