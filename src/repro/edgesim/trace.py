"""Execution tracing: per-task event timelines and text Gantt charts.

For debugging allocation behavior ("why was the gate late?") the summary
metrics are not enough; this module records the full event sequence of a
simulated epoch and renders it as a device-by-device Gantt chart in plain
text. Tracing is opt-in: wrap the simulator with :class:`TracingSimulator`
(same ``run`` signature, returns ``(SimResult, Trace)``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.edgesim.network import StarNetwork
from repro.edgesim.node import EdgeNode
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan, SimResult
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError
from repro.telemetry import current_run_trace, record_edgesim_trace


@dataclass(frozen=True)
class TraceEvent:
    """One traced span: a transfer or an execution."""

    kind: str  # "input", "execution", "result"
    task_id: int
    node_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise DataError(f"event ends before it starts: {self}")


@dataclass
class Trace:
    """Ordered record of everything that happened in one epoch.

    By default the event list is unbounded (fine at testbed scale). With
    ``max_events`` set, ``events`` becomes a ``deque(maxlen=max_events)``
    and :meth:`add` keeps only the most recent events, counting evictions
    in ``dropped`` — so tracing a fleet-scale run holds a bounded ring,
    never O(events). For a full-fidelity record at bounded memory, stream
    through :class:`JsonlTraceSink` instead.
    """

    events: list[TraceEvent] = field(default_factory=list)
    decision_time: float | None = None
    max_events: int | None = None
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.max_events is not None:
            if self.max_events < 1:
                raise ConfigurationError(
                    f"max_events must be >= 1, got {self.max_events}"
                )
            self.events = deque(self.events, maxlen=self.max_events)

    def add(self, event: TraceEvent) -> None:
        """Append an event, enforcing the ``max_events`` ring bound."""
        if self.max_events is not None and len(self.events) == self.max_events:
            self.dropped += 1
        self.events.append(event)

    def for_task(self, task_id: int) -> list[TraceEvent]:
        return [e for e in self.events if e.task_id == task_id]

    def for_node(self, node_id: int) -> list[TraceEvent]:
        return [e for e in self.events if e.node_id == node_id]

    def executions(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "execution"]

    @property
    def horizon(self) -> float:
        if not self.events:
            return 0.0
        return max(e.end for e in self.events)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One meta line plus one JSON object per event.

        The format mirrors :meth:`repro.telemetry.RunTrace.to_jsonl`:
        a leading ``{"kind": "meta", ...}`` line, then ``"kind": "event"``
        lines, unknown kinds reserved for forward compatibility.
        """
        meta: dict = {
            "kind": "meta",
            "events": len(self.events),
            "decision_time": self.decision_time,
        }
        if self.dropped:
            meta["dropped"] = self.dropped
        lines = [json.dumps(meta)]
        for event in self.events:
            lines.append(
                json.dumps(
                    {
                        "kind": "event",
                        "event": event.kind,
                        "task_id": event.task_id,
                        "node_id": event.node_id,
                        "start": event.start,
                        "end": event.end,
                    }
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a serialized trace; exact inverse of :meth:`to_jsonl`."""
        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid trace JSONL line: {line[:80]!r}") from exc
            kind = payload.get("kind", "event")
            if kind == "meta":
                decision = payload.get("decision_time")
                trace.decision_time = None if decision is None else float(decision)
                trace.dropped = int(payload.get("dropped", 0) or 0)
            elif kind == "event":
                try:
                    trace.events.append(
                        TraceEvent(
                            kind=str(payload["event"]),
                            task_id=int(payload["task_id"]),
                            node_id=int(payload["node_id"]),
                            start=float(payload["start"]),
                            end=float(payload["end"]),
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataError(f"malformed trace event: {payload!r}") from exc
            # Unknown kinds are skipped for forward compatibility.
        return trace

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def read_jsonl(cls, path) -> "Trace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())

    # ------------------------------------------------------------------
    def gantt(self, *, width: int = 72) -> str:
        """Device-lane Gantt chart: '=' executions, '-' channel transfers."""
        if width < 20:
            raise ConfigurationError(f"width must be >= 20, got {width}")
        if not self.events:
            return "(empty trace)"
        horizon = self.horizon or 1.0
        lanes: dict[str, list[TraceEvent]] = {}
        for event in self.events:
            lane = "channel" if event.kind in ("input", "result") else f"node {event.node_id}"
            lanes.setdefault(lane, []).append(event)
        label_width = max(len(l) for l in lanes)
        lines = []
        for lane in sorted(lanes):
            row = [" "] * width
            for event in lanes[lane]:
                start = int(event.start / horizon * (width - 1))
                end = max(start + 1, int(event.end / horizon * (width - 1)) + 1)
                glyph = "=" if event.kind == "execution" else "-"
                for i in range(start, min(end, width)):
                    row[i] = glyph
            lines.append(f"{lane.ljust(label_width)} |{''.join(row)}|")
        if self.decision_time is not None:
            marker_position = int(self.decision_time / horizon * (width - 1))
            marker = [" "] * width
            if 0 <= marker_position < width:
                marker[marker_position] = "^"
            lines.append(f"{'decision'.ljust(label_width)}  {''.join(marker)} t={self.decision_time:.1f}s")
        lines.append(f"{'scale'.ljust(label_width)}  0 .. {horizon:.1f}s")
        return "\n".join(lines)


class JsonlTraceSink:
    """Streaming trace writer: events go straight to disk, memory stays O(1).

    The full-fidelity alternative to ``Trace(max_events=...)`` for
    fleet-scale runs: every :meth:`add` writes one JSONL event line
    immediately, and :meth:`close` appends the ``meta`` line
    (:meth:`Trace.from_jsonl` accepts meta anywhere in the stream, so
    writing it last keeps the sink single-pass). Usable as a context
    manager; the file read back with :meth:`Trace.read_jsonl` is the same
    trace an in-memory run would have produced.
    """

    def __init__(self, path) -> None:
        self._handle = open(path, "w", encoding="utf-8")
        self.path = path
        self.events_written = 0
        self.decision_time: float | None = None
        self._closed = False

    def add(self, event: TraceEvent) -> None:
        if self._closed:
            raise ConfigurationError("trace sink is closed")
        self._handle.write(
            json.dumps(
                {
                    "kind": "event",
                    "event": event.kind,
                    "task_id": event.task_id,
                    "node_id": event.node_id,
                    "start": event.start,
                    "end": event.end,
                }
            )
            + "\n"
        )
        self.events_written += 1

    def set_decision(self, decision_time: float | None) -> None:
        self.decision_time = decision_time

    def close(self) -> None:
        if self._closed:
            return
        self._handle.write(
            json.dumps(
                {
                    "kind": "meta",
                    "events": self.events_written,
                    "decision_time": self.decision_time,
                }
            )
            + "\n"
        )
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TracingSimulator:
    """EdgeSimulator wrapper that reconstructs the epoch's event spans.

    Rather than instrumenting the DES (which would entangle measurement
    with mechanics), the tracer *replays* the completed run: from the
    result's completion times and the node each counted result came from
    (which, under ``failures=``, may not be the planned node) it
    re-derives each task's transfer and execution spans using the same
    timing model. Only completed tasks appear in the trace.
    """

    def __init__(self, simulator: EdgeSimulator, *, max_events: int | None = None) -> None:
        self.simulator = simulator
        self.max_events = max_events

    def run(
        self,
        tasks: Sequence[SimTask],
        plan: ExecutionPlan,
        **kwargs,
    ) -> tuple[SimResult, Trace]:
        result = self.simulator.run(tasks, plan, **kwargs)
        trace = self._reconstruct(tasks, result)
        if current_run_trace() is not None:
            record_edgesim_trace(trace, label=plan.label)
        return result, trace

    def _reconstruct(self, tasks: Sequence[SimTask], result: SimResult) -> Trace:
        task_by_id = {task.task_id: task for task in tasks}
        network: StarNetwork = self.simulator.network
        trace = Trace(max_events=self.max_events)
        for task_id, arrival in sorted(result.completion_times.items(), key=lambda kv: kv[1]):
            task = task_by_id[task_id]
            node_id = result.completion_nodes[task_id]
            node = self.simulator.nodes[node_id]
            result_span = network.transfer_time(task.result_mb)
            exec_span = node.execution_time(task.input_mb)
            input_span = network.transfer_time(task.input_mb)
            result_start = arrival - result_span
            exec_end = result_start  # lower bound; queueing gaps collapse
            exec_start = exec_end - exec_span
            input_end = exec_start
            input_start = input_end - input_span
            trace.add(TraceEvent("input", task_id, node_id, max(0.0, input_start), max(0.0, input_end)))
            trace.add(TraceEvent("execution", task_id, node_id, max(0.0, exec_start), max(0.0, exec_end)))
            trace.add(TraceEvent("result", task_id, node_id, max(0.0, result_start), arrival))
        trace.decision_time = result.processing_time if result.gate_crossed else None
        return trace
