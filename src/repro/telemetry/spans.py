"""Timed spans and per-run traces.

A :class:`RunTrace` is the trace sink of one run: a flat list of
:class:`SpanRecord` entries with parent links, produced by the
:func:`span` context manager against a monotonic clock
(``time.perf_counter``), timestamped relative to the trace's start.

    with use_run_trace(RunTrace()) as trace:
        with span("core.epoch", day=3):
            with span("tatim.solve", solver="density_greedy"):
                ...
    trace.write_jsonl("trace.jsonl")
    print(trace.flame())

Like the metrics registry, tracing is off by default: with no active
trace, :func:`span` returns a shared no-op context manager, so
instrumented code costs one global read and an ``with`` on a stateless
object. Spans record exceptions (the raising type lands in the span's
attrs under ``"error"``) and always close, so traces stay well-nested
even on failure paths.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import DataError


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    ``start``/``end`` are seconds relative to the owning trace's start
    (monotonic clock); ``parent`` is the index of the enclosing span in
    the trace's span list, or None at the root; ``depth`` is the nesting
    level (0 = root). Bridged spans (e.g. from the edge DES) may carry
    simulated rather than wall-clock seconds — they mark themselves via
    attrs (``clock="sim"``).
    """

    name: str
    start: float
    end: float | None = None
    depth: int = 0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        try:
            return cls(
                name=str(payload["name"]),
                start=float(payload["start"]),
                end=None if payload.get("end") is None else float(payload["end"]),
                depth=int(payload.get("depth", 0)),
                parent=payload.get("parent"),
                attrs=dict(payload.get("attrs", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed span record: {payload!r}") from exc


class RunTrace:
    """Ordered span sink for one run, serializable to JSONL."""

    def __init__(self, *, label: str = "run", clock=time.perf_counter) -> None:
        self.label = label
        self._clock = clock
        self._t0 = clock()
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    def begin(self, name: str, attrs: dict | None = None) -> int:
        """Open a span; returns its index for :meth:`finish`."""
        record = SpanRecord(
            name=name,
            start=self._clock() - self._t0,
            depth=len(self._stack),
            parent=self._stack[-1] if self._stack else None,
            attrs=dict(attrs) if attrs else {},
        )
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        return index

    def finish(self, index: int, *, error: str | None = None) -> SpanRecord:
        """Close the span opened as ``index`` (must be the innermost)."""
        if not self._stack or self._stack[-1] != index:
            raise DataError(
                f"span {index} is not the innermost open span; "
                f"stack is {self._stack}"
            )
        self._stack.pop()
        record = self.spans[index]
        record.end = self._clock() - self._t0
        if error is not None:
            record.attrs["error"] = error
        return record

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        attrs: dict | None = None,
        parent: int | None = None,
    ) -> int:
        """Append a pre-timed span (bridged from another event source).

        Unlike :meth:`begin`/:meth:`finish`, timestamps are taken as
        given, so foreign timelines (the edge DES's simulated seconds)
        can flow into the same sink. Returns the new span's index.
        """
        if end < start:
            raise DataError(f"span {name!r} ends before it starts ({start} .. {end})")
        if parent is not None and not (0 <= parent < len(self.spans)):
            raise DataError(f"parent index {parent} out of range")
        depth = 0 if parent is None else self.spans[parent].depth + 1
        record = SpanRecord(
            name=name,
            start=float(start),
            end=float(end),
            depth=depth,
            parent=parent,
            attrs=dict(attrs) if attrs else {},
        )
        self.spans.append(record)
        return len(self.spans) - 1

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """End of the last closed span (relative seconds)."""
        ends = [s.end for s in self.spans if s.end is not None]
        return max(ends) if ends else 0.0

    def roots(self) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent is None]

    def children_of(self, index: int) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent == index]

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One meta line plus one JSON object per span."""
        lines = [json.dumps({"kind": "meta", "label": self.label, "spans": len(self.spans)})]
        for record in self.spans:
            payload = record.to_dict()
            payload["kind"] = "span"
            lines.append(json.dumps(payload))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "RunTrace":
        """Parse a serialized trace; inverse of :meth:`to_jsonl`."""
        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid JSONL line: {line[:80]!r}") from exc
            kind = payload.get("kind", "span")
            if kind == "meta":
                trace.label = str(payload.get("label", trace.label))
            elif kind == "span":
                trace.spans.append(SpanRecord.from_dict(payload))
            # Unknown kinds are skipped for forward compatibility.
        return trace

    @classmethod
    def read_jsonl(cls, path) -> "RunTrace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name rollup: calls, total time, and self time.

        Self time is a span's duration minus its direct children's — the
        flame-graph quantity that shows where time is actually spent
        rather than merely passed through.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None and record.end is not None:
                child_time[record.parent] += record.duration
        rollup: dict[str, dict[str, float]] = {}
        for index, record in enumerate(self.spans):
            if record.end is None:
                continue
            entry = rollup.setdefault(
                record.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += record.duration
            entry["self_s"] += max(0.0, record.duration - child_time[index])
        return rollup

    def flame(self, *, width: int = 50, max_names: int = 20) -> str:
        """Text flame summary: nesting tree plus a self-time bar chart."""
        from repro.utils.ascii_charts import bar_chart

        if not self.spans:
            return "(empty trace)"
        lines = [f"trace {self.label!r}: {len(self.spans)} spans, {self.duration:.3f}s"]
        shown = 0
        for record in self.spans:
            if shown >= 40:
                lines.append(f"  ... ({len(self.spans) - shown} more spans)")
                break
            marker = " [sim]" if record.attrs.get("clock") == "sim" else ""
            error = f" !{record.attrs['error']}" if "error" in record.attrs else ""
            lines.append(
                f"  {'  ' * record.depth}{record.name}  {record.duration:.4f}s{marker}{error}"
            )
            shown += 1
        rollup = self.aggregate()
        if rollup:
            ranked = sorted(rollup.items(), key=lambda kv: -kv[1]["self_s"])[:max_names]
            labels = [f"{name} (x{int(entry['calls'])})" for name, entry in ranked]
            values = [entry["self_s"] for _, entry in ranked]
            lines.append("")
            lines.append(
                bar_chart(labels, values, width=width, title="self time by span name", unit="s")
            )
        return "\n".join(lines)


class _SpanContext:
    """Context manager that records one span into a RunTrace."""

    __slots__ = ("_trace", "_name", "_attrs", "_index")

    def __init__(self, trace: RunTrace, name: str, attrs: dict) -> None:
        self._trace = trace
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._index = self._trace.begin(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._trace.finish(
            self._index, error=exc_type.__name__ if exc_type is not None else None
        )
        return False


class _NoopSpan:
    """Stateless reusable stand-in when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_active_trace: RunTrace | None = None


def current_run_trace() -> RunTrace | None:
    """The installed trace sink, or None when tracing is off."""
    return _active_trace


def set_run_trace(trace: RunTrace | None) -> RunTrace | None:
    """Install (or clear, with None) the process-wide trace sink."""
    global _active_trace
    _active_trace = trace
    return trace


@contextmanager
def use_run_trace(trace: RunTrace) -> Iterator[RunTrace]:
    """Temporarily install ``trace``; restores the previous sink on exit."""
    previous = _active_trace
    set_run_trace(trace)
    try:
        yield trace
    finally:
        set_run_trace(previous)


def span(name: str, **attrs):
    """Open a timed span in the active trace (no-op when tracing is off)."""
    trace = _active_trace
    if trace is None:
        return _NOOP_SPAN
    return _SpanContext(trace, name, attrs)
