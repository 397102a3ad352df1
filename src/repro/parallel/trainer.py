"""Process-parallel fan-out for embarrassingly parallel pipeline stages.

A Fig. 9 sweep point or one seed of a multi-seed run rebuilds and
evaluates a whole policy set on its own — the canonical fan-out.
:class:`ParallelTrainer` runs a picklable module-level worker function
over a list of picklable payloads on a
:class:`~concurrent.futures.ProcessPoolExecutor`, with three guarantees
the rest of the pipeline relies on:

- **Determinism** — all randomness must come from seeds carried *inside*
  the payloads (see :func:`repro.utils.rng.derive_seeds`), so ``jobs=1``
  and ``jobs=N`` produce byte-identical results regardless of completion
  order (results are returned in submission order).
- **Telemetry round-trip** — each worker runs under a private
  :class:`~repro.telemetry.MetricsRegistry` and :class:`~repro.telemetry.RunTrace`;
  the parent merges worker counters/gauges/histograms into the ambient
  registry and grafts worker spans under a ``parallel.worker`` span in
  the ambient trace (worker spans are re-based onto the parent timeline
  and marked ``clock="worker"``).
- **Graceful serial fallback** — ``jobs=1`` and single-item workloads
  run in-process; a dispatch failure (pickling, a dead worker, an OS
  error) degrades the map to an in-process loop (counted by
  ``repro_parallel_fallbacks_total``). An exception raised by the worker
  function itself is not a dispatch failure: it is raised once, in the
  parent, exactly as the serial loop would raise it.
"""

from __future__ import annotations

import pickle
import traceback
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.parallel.pool import get_worker_pool
from repro.telemetry import (
    MetricsRegistry,
    RunTrace,
    current_run_trace,
    get_registry,
    snapshot,
    span,
    use_registry,
    use_run_trace,
)


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised inside a worker."""


def _run_in_worker(fn: Callable, payload) -> tuple:
    """Execute ``fn(payload)`` under private telemetry sinks.

    Returns ``(error, value, spans, metrics)`` where ``spans`` is the
    worker trace as dicts and ``metrics`` is a registry snapshot — plain
    data, picklable back to the parent. The registry and trace are fresh
    per task (not per worker process), so each result carries exactly the
    deltas this task produced: a long-lived pool worker serving many
    batches can never leak counts across tasks. An exception raised by
    ``fn`` comes back as ``error``, ``(exception, formatted traceback)``
    with ``value`` ``None``, so the parent can re-raise it instead of
    mistaking it for a dispatch failure.
    """
    registry = MetricsRegistry()
    trace = RunTrace(label="worker")
    with use_registry(registry), use_run_trace(trace):
        try:
            value = fn(payload)
        except Exception as exc:
            return (exc, traceback.format_exc()), None, [], {}
    return None, value, [record.to_dict() for record in trace.spans], snapshot(registry)


def merge_worker_metrics(metrics: dict) -> None:
    """Fold a worker registry snapshot into the ambient registry.

    Counters are incremented by the worker's value, gauges adopt the
    worker's last value, histograms merge bucket-by-bucket. Families the
    ambient registry already holds with conflicting kinds/buckets are
    skipped rather than corrupted.
    """
    registry = get_registry()
    for entry in metrics.get("metrics", []):
        name = entry["name"]
        labels = entry.get("labels", {})
        help_text = entry.get("help", "")
        try:
            if entry["kind"] == "counter":
                registry.counter(name, help=help_text, **labels).inc(entry["value"])
            elif entry["kind"] == "gauge":
                registry.gauge(name, help=help_text, **labels).set(entry["value"])
            elif entry["kind"] == "histogram":
                _merge_histogram(registry, entry, help_text)
        except ConfigurationError:
            continue


def _merge_histogram(registry, entry: dict, help_text: str) -> None:
    buckets = entry.get("buckets", {})
    edges = tuple(float(edge) for edge in buckets if edge != "+Inf")
    if not edges:
        return
    histogram = registry.histogram(
        entry["name"], buckets=edges, help=help_text, **entry.get("labels", {})
    )
    if not hasattr(histogram, "bucket_counts"):  # null instrument: telemetry off
        return
    cumulative = [int(buckets[edge]) for edge in buckets if edge != "+Inf"]
    previous = 0
    for index, count in enumerate(cumulative):
        histogram.bucket_counts[index] += count - previous
        previous = count
    histogram.overflow += int(entry["count"]) - previous
    histogram.sum += float(entry["sum"])
    histogram.count += int(entry["count"])


def merge_worker_spans(spans: Sequence[dict], *, worker: int) -> None:
    """Graft a worker's span list into the ambient trace, if any.

    The worker timeline is re-based to start at the parent trace's
    current end; a synthetic ``parallel.worker`` span wraps it so flame
    views attribute the time correctly.
    """
    trace = current_run_trace()
    if trace is None or not spans:
        return
    base = trace.duration
    worker_end = max((s["end"] for s in spans if s.get("end") is not None), default=0.0)
    parent = trace.add_span(
        "parallel.worker",
        base,
        base + worker_end,
        attrs={"worker": worker, "clock": "worker"},
    )
    index_map: dict[int, int] = {}
    for original_index, record in enumerate(spans):
        end = record["end"] if record.get("end") is not None else record["start"]
        attrs = dict(record.get("attrs", {}))
        attrs.setdefault("clock", "worker")
        index_map[original_index] = trace.add_span(
            record["name"],
            base + record["start"],
            base + end,
            attrs=attrs,
            parent=index_map.get(record.get("parent"), parent),
        )


class ParallelTrainer:
    """Runs ``fn`` over payloads across worker processes, in order.

    Fan-outs execute on the process-wide persistent
    :class:`~repro.parallel.pool.WorkerPool` — the executor is built once
    and reused, so repeated maps (back-to-back Fig. 9 sweeps, one map per
    multi-seed run) stop repaying spin-up. ``jobs`` is the worker
    count, capped by the payload count; a map inside a forked worker runs
    serially in-process, which is always result-identical by the
    determinism contract.

    Parameters
    ----------
    fn:
        A module-level (hence picklable-by-reference) function of one
        picklable payload. All randomness must derive from the payload.
    jobs:
        Worker process count. ``1`` (the default) runs serially in the
        parent process — telemetry then flows into the ambient sinks
        directly instead of through the merge path.
    label:
        Span label for the fan-out (``parallel.map`` attr).
    """

    def __init__(self, fn: Callable, *, jobs: int = 1, label: str = "train") -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.fn = fn
        self.jobs = int(jobs)
        self.label = label

    # ------------------------------------------------------------------
    def _map_serial(self, payloads: Sequence) -> list:
        with span("parallel.map", label=self.label, jobs=1, tasks=len(payloads)):
            return [self.fn(payload) for payload in payloads]

    def _dispatch(self, payloads: Sequence, workers: int) -> list:
        """Every payload's worker outcome, in order (raises dispatch failures)."""
        with span("parallel.map", label=self.label, jobs=workers, tasks=len(payloads)):
            executor = get_worker_pool().executor(workers)
            futures = [
                executor.submit(_run_in_worker, self.fn, payload) for payload in payloads
            ]
            return [future.result() for future in futures]

    def _collect(self, outcomes: list) -> list:
        """Re-raise the first worker error, else merge telemetry once per outcome."""
        for error, *_ in outcomes:
            if error is not None:
                exc, worker_traceback = error
                raise exc from WorkerTraceback(worker_traceback)
        values = []
        for worker, (_, value, spans, metrics) in enumerate(outcomes):
            merge_worker_metrics(metrics)
            merge_worker_spans(spans, worker=worker)
            values.append(value)
        get_worker_pool().count_tasks(len(outcomes), label=self.label)
        get_registry().counter(
            "repro_parallel_tasks_total",
            help="Payloads executed by ParallelTrainer worker processes",
            label=self.label,
        ).inc(len(outcomes))
        return values

    def map(self, payloads: Sequence) -> list:
        """``[fn(p) for p in payloads]``, over ``min(jobs, len(payloads))`` workers."""
        payloads = list(payloads)
        if not payloads:
            return []
        workers = get_worker_pool().effective_jobs(self.jobs, len(payloads))
        if workers == 1:
            return self._map_serial(payloads)
        try:
            outcomes = self._dispatch(payloads, workers)
        except (pickle.PicklingError, AttributeError, TypeError, BrokenProcessPool, OSError) as exc:
            if isinstance(exc, BrokenProcessPool):
                get_worker_pool().reset()
            get_registry().counter(
                "repro_parallel_fallbacks_total",
                help="Parallel fan-outs degraded to the serial path",
                label=self.label,
            ).inc()
            with span("parallel.fallback", label=self.label, error=type(exc).__name__):
                return self._map_serial(payloads)
        return self._collect(outcomes)
