"""Streaming time-series telemetry: windowed registry deltas in a ring.

The batch exporters dump the registry once, at the end of a run; a live
``repro serve`` process needs the *trajectory* — requests/sec and tail
latency per window, not per run. :class:`TimeSeriesAggregator` provides
that view at bounded memory: it snapshots :class:`MetricsRegistry`
deltas into fixed-width **tumbling windows** held in a bounded ring
(``collections.deque(maxlen=max_windows)``), so a million-event run
costs O(families × windows), never O(events).

Per closed window it records, sparsely (only instruments that moved):

- **counters** — the window's delta and rate/sec;
- **gauges** — the latest value (only when it changed);
- **histograms** — the window's count/sum deltas, rate, mean, and
  bucket-interpolated percentile *estimates* (p50/p95/p99 by default) —
  the same linear-within-bucket rule as Prometheus ``histogram_quantile``,
  so accuracy is bounded by the bucket edges, not by sample storage.

Windows serialize to JSONL (one meta line + one line per window); the
``repro top`` CLI renders either a saved file or a live ``/timeseries``
endpoint back into the window table via :func:`timeseries_table`.

Ticking is **pull-based**: call :meth:`TimeSeriesAggregator.maybe_tick`
from any loop (the dispatcher does, once per drain iteration) and/or let
the HTTP sidecar's sampler thread drive it. Closing is idempotent and
lock-protected, so both may race freely. A window that closes with no
movement stores an empty row list — stalls stay cheap. All deltas
observed at close time are attributed to the window being closed: after
a long stall the first catch-up window absorbs the backlog and the rest
close empty (standard tumbling-window attribution).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DataError
from repro.telemetry.exporters import _edge_text
from repro.telemetry.instruments import Histogram
from repro.telemetry.registry import MetricsRegistry, NullRegistry, get_registry

#: Percentiles estimated per histogram per window.
DEFAULT_QUANTILES: tuple[float, ...] = (50.0, 95.0, 99.0)


def estimate_quantile(
    edges: tuple[float, ...],
    bucket_deltas: list[int],
    overflow: int,
    q: float,
) -> float:
    """Bucket-interpolated quantile of one window's histogram delta.

    Linear interpolation inside the bucket holding the rank (the
    ``histogram_quantile`` rule); the first bucket interpolates from 0,
    and ranks landing in the +Inf overflow bucket clamp to the last
    edge — estimates are only as sharp as the bucket grid.
    """
    total = sum(bucket_deltas) + overflow
    if total <= 0:
        return 0.0
    rank = (q / 100.0) * total
    running = 0.0
    for index, count in enumerate(bucket_deltas):
        if count <= 0:
            continue
        if running + count >= rank:
            lower = edges[index - 1] if index > 0 else 0.0
            upper = edges[index]
            return lower + (upper - lower) * (rank - running) / count
        running += count
    return float(edges[-1])


@dataclass
class WindowSnapshot:
    """One closed tumbling window: per-instrument deltas and rates.

    ``rows`` is sparse — only instruments that moved during the window
    appear (gauges: only when the value changed). Row shapes::

        {"name", "kind": "counter",   "labels", "delta", "rate_per_s"}
        {"name", "kind": "gauge",     "labels", "value"}
        {"name", "kind": "histogram", "labels", "count_delta",
         "sum_delta", "overflow_delta", "rate_per_s", "mean",
         "p50", "p95", "p99", "le": {edge: cumulative window count}}

    The histogram ``le`` map holds this window's *delta* counts in
    cumulative (Prometheus) form — the SLO evaluator reads good/bad
    fractions off it without ever touching raw events.
    """

    index: int
    start_s: float
    end_s: float
    rows: list[dict] = field(default_factory=list)

    @property
    def width_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "start_s": float(self.start_s),
            "end_s": float(self.end_s),
            "rows": self.rows,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowSnapshot":
        try:
            return cls(
                index=int(payload["index"]),
                start_s=float(payload["start_s"]),
                end_s=float(payload["end_s"]),
                rows=list(payload.get("rows", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed window record: {payload!r}") from exc


class TimeSeriesAggregator:
    """Snapshots registry deltas into a bounded ring of tumbling windows.

    Parameters
    ----------
    registry:
        The registry to diff. ``None`` (the default) resolves the
        ambient process registry *at each tick*, so an aggregator built
        before ``use_registry`` installs the real one still sees it.
    window_s:
        Tumbling-window width in (clock) seconds.
    max_windows:
        Ring capacity — the O(windows) memory bound. Older windows fall
        off the front; ``dropped`` counts them.
    clock:
        Monotonic time source. Injectable so the edge DES can drive
        windows on *simulated* seconds (see
        :func:`repro.telemetry.bridge.edgesim_timeseries`).
    quantiles:
        Percentiles estimated per histogram per window.
    """

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry | None = None,
        *,
        window_s: float = 1.0,
        max_windows: int = 240,
        clock=time.perf_counter,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        if max_windows < 1:
            raise ConfigurationError(f"max_windows must be >= 1, got {max_windows}")
        self._registry = registry
        self.window_s = float(window_s)
        self.max_windows = int(max_windows)
        self.quantiles = tuple(float(q) for q in quantiles)
        self.windows: deque[WindowSnapshot] = deque(maxlen=self.max_windows)
        self.dropped = 0
        self._clock = clock
        self._t0 = clock()
        self._open_index = 0
        #: (name, label-key) -> last-seen cumulative state. Size is
        #: O(instrument children), independent of event count.
        self._baseline: dict[tuple, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _target(self) -> MetricsRegistry | NullRegistry:
        return self._registry if self._registry is not None else get_registry()

    def elapsed(self) -> float:
        """Seconds since construction on the aggregator's clock."""
        return self._clock() - self._t0

    def __len__(self) -> int:
        return len(self.windows)

    # ------------------------------------------------------------------
    def _diff_rows(self, width_s: float) -> list[dict]:
        """Sparse per-instrument deltas since the previous close."""
        rows: list[dict] = []
        registry = self._target()
        for family in registry.families():
            for key in sorted(family.children):
                child = family.children[key]
                baseline_key = (family.name, key)
                labels = dict(key)
                if isinstance(child, Histogram):
                    counts = list(child.bucket_counts)
                    state = (counts, child.overflow, child.sum, child.count)
                    prev = self._baseline.get(baseline_key)
                    self._baseline[baseline_key] = state
                    if prev is None:
                        prev = ([0] * len(counts), 0, 0.0, 0)
                    count_delta = child.count - prev[3]
                    if count_delta <= 0:
                        continue
                    bucket_deltas = [c - p for c, p in zip(counts, prev[0])]
                    overflow_delta = child.overflow - prev[1]
                    sum_delta = child.sum - prev[2]
                    le: dict[str, int] = {}
                    running = 0
                    for edge, delta in zip(child.edges, bucket_deltas):
                        running += delta
                        le[_edge_text(edge)] = running
                    row = {
                        "name": family.name,
                        "kind": "histogram",
                        "labels": labels,
                        "count_delta": int(count_delta),
                        "sum_delta": float(sum_delta),
                        "overflow_delta": int(overflow_delta),
                        "rate_per_s": count_delta / width_s if width_s > 0 else 0.0,
                        "mean": float(sum_delta / count_delta),
                        "le": le,
                    }
                    for q in self.quantiles:
                        row[f"p{q:g}".replace(".", "_")] = estimate_quantile(
                            child.edges, bucket_deltas, overflow_delta, q
                        )
                    rows.append(row)
                elif child.kind == "counter":
                    prev_value = self._baseline.get(baseline_key, 0.0)
                    value = child.value
                    self._baseline[baseline_key] = value
                    delta = value - prev_value
                    if delta == 0:
                        continue
                    rows.append(
                        {
                            "name": family.name,
                            "kind": "counter",
                            "labels": labels,
                            "delta": float(delta),
                            "rate_per_s": delta / width_s if width_s > 0 else 0.0,
                        }
                    )
                else:  # gauge
                    value = child.value
                    prev_value = self._baseline.get(baseline_key)
                    self._baseline[baseline_key] = value
                    if prev_value is not None and value == prev_value:
                        continue
                    rows.append(
                        {
                            "name": family.name,
                            "kind": "gauge",
                            "labels": labels,
                            "value": float(value),
                        }
                    )
        return rows

    def _close_window(self, end_s: float) -> None:
        start_s = self._open_index * self.window_s
        if len(self.windows) == self.windows.maxlen:
            self.dropped += 1
        self.windows.append(
            WindowSnapshot(
                index=self._open_index,
                start_s=start_s,
                end_s=end_s,
                rows=self._diff_rows(end_s - start_s),
            )
        )
        self._open_index += 1

    def maybe_tick(self, now: float | None = None) -> int:
        """Close every window whose boundary has passed; returns count.

        Cheap when nothing is due (one clock read and a compare), so
        serving loops can call it every iteration. After a stall the
        first catch-up window absorbs all accumulated deltas and the
        remaining windows close empty; catch-up beyond the ring capacity
        fast-forwards instead of materializing windows destined to be
        dropped.
        """
        elapsed = self.elapsed() if now is None else float(now)
        target = int(elapsed / self.window_s)
        if target <= self._open_index:
            return 0
        with self._lock:
            gap = target - self._open_index
            if gap <= 0:
                return 0
            closed = 0
            if gap > self.max_windows:
                # Close the absorbing window (it takes all backlogged
                # deltas), then skip windows that would only be appended
                # to fall straight off the ring.
                self._close_window((self._open_index + 1) * self.window_s)
                closed += 1
                skipped = gap - self.max_windows
                self.dropped += skipped
                self._open_index += skipped
            while self._open_index < target:
                self._close_window((self._open_index + 1) * self.window_s)
                closed += 1
            return closed

    def flush(self) -> int:
        """Close due windows plus the current partial one (end-of-run)."""
        elapsed = self.elapsed()
        closed = self.maybe_tick(elapsed)
        with self._lock:
            if elapsed > self._open_index * self.window_s:
                self._close_window(elapsed)
                closed += 1
        return closed

    # ------------------------------------------------------------------
    def to_jsonl(self, *, last: int | None = None) -> str:
        """One meta line + one JSON object per (optionally last N) window."""
        with self._lock:
            windows = list(self.windows)
        if last is not None and last >= 0:
            windows = windows[-last:]
        meta = {
            "kind": "meta",
            "window_s": self.window_s,
            "max_windows": self.max_windows,
            "windows": len(windows),
            "dropped": self.dropped,
        }
        lines = [json.dumps(meta)]
        for window in windows:
            payload = window.to_dict()
            payload["kind"] = "window"
            lines.append(json.dumps(payload))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path, *, last: int | None = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl(last=last))

    def table(self, *, last: int = 12) -> str:
        """The live window table (see :func:`timeseries_table`)."""
        with self._lock:
            windows = list(self.windows)
        return timeseries_table(windows, last=last)


def parse_timeseries_jsonl(text: str) -> tuple[dict, list[WindowSnapshot]]:
    """Parse a serialized timeseries; inverse of ``to_jsonl``.

    Returns ``(meta, windows)``; unknown line kinds are skipped for
    forward compatibility, mirroring :meth:`RunTrace.from_jsonl`.
    """
    meta: dict = {}
    windows: list[WindowSnapshot] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid timeseries JSONL line: {line[:80]!r}") from exc
        if not isinstance(payload, dict):
            raise DataError(f"timeseries JSONL line is not an object: {line[:80]!r}")
        kind = payload.get("kind", "window")
        if kind == "meta":
            meta = {k: v for k, v in payload.items() if k != "kind"}
        elif kind == "window":
            windows.append(WindowSnapshot.from_dict(payload))
    return meta, windows


def read_timeseries_jsonl(path) -> tuple[dict, list[WindowSnapshot]]:
    """Read a ``write_jsonl`` file back as ``(meta, windows)``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_timeseries_jsonl(handle.read())


def _rank_families(windows: list[WindowSnapshot]) -> tuple[list[str], list[str]]:
    """(counter families by total delta, histogram families by count)."""
    counter_totals: dict[str, float] = {}
    histogram_totals: dict[str, int] = {}
    for window in windows:
        for row in window.rows:
            if row["kind"] == "counter":
                counter_totals[row["name"]] = counter_totals.get(row["name"], 0.0) + row["delta"]
            elif row["kind"] == "histogram":
                histogram_totals[row["name"]] = (
                    histogram_totals.get(row["name"], 0) + row["count_delta"]
                )
    counters = sorted(counter_totals, key=lambda n: (-counter_totals[n], n))
    histograms = sorted(histogram_totals, key=lambda n: (-histogram_totals[n], n))
    return counters, histograms


def timeseries_table(
    windows: list[WindowSnapshot],
    *,
    last: int = 12,
    counter_families: list[str] | None = None,
    histogram_families: list[str] | None = None,
) -> str:
    """Render windows as the ``repro top`` table (one row per window).

    With no explicit family selection, serving metrics are preferred
    when present; otherwise the busiest counter and histogram families
    are picked by total movement across the shown windows.
    """
    from repro.utils.reporting import format_table

    windows = list(windows)[-max(last, 1) :]
    if not windows:
        return "(no windows recorded)"
    ranked_counters, ranked_histograms = _rank_families(windows)
    if counter_families is None:
        preferred = [
            n for n in ("repro_serve_requests_total", "repro_serve_rejections_total")
            if n in ranked_counters
        ]
        counter_families = preferred or ranked_counters[:2]
    if histogram_families is None:
        preferred = [n for n in ("repro_serve_latency_seconds",) if n in ranked_histograms]
        histogram_families = preferred or ranked_histograms[:1]

    def short(name: str) -> str:
        return name.removeprefix("repro_").removesuffix("_total").removesuffix("_seconds")

    headers = ["window", "t (s)"]
    for name in counter_families:
        headers.append(f"{short(name)}/s")
    for name in histogram_families:
        headers.extend([f"{short(name)} p50 (ms)", "p95 (ms)", "p99 (ms)"])
    rows: list[list[object]] = []
    for window in windows:
        row: list[object] = [
            window.index,
            f"{window.start_s:.1f}-{window.end_s:.1f}",
        ]
        for name in counter_families:
            rate = sum(
                r["rate_per_s"]
                for r in window.rows
                if r["kind"] == "counter" and r["name"] == name
            )
            row.append(f"{rate:.1f}")
        for name in histogram_families:
            matches = [
                r for r in window.rows if r["kind"] == "histogram" and r["name"] == name
            ]
            for quantile_key in ("p50", "p95", "p99"):
                if matches:
                    worst = max(m.get(quantile_key, 0.0) for m in matches)
                    row.append(f"{worst * 1e3:.3f}")
                else:
                    row.append("-")
        rows.append(row)
    return format_table(headers, rows, title="telemetry windows")
