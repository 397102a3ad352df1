"""Process-parallel fan-out for embarrassingly parallel pipeline stages.

The CRL training phase trains one DQN per cluster/neighbourhood on
disjoint state — the canonical fan-out. :class:`ParallelTrainer` runs a
picklable module-level worker function over a list of picklable payloads
on a :class:`~concurrent.futures.ProcessPoolExecutor`, with three
guarantees the rest of the pipeline relies on:

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
- **Graceful serial fallback** — ``jobs=1``, single-item workloads, or
  any pickling/pool failure degrade to an in-process loop (counted by
  ``repro_parallel_fallbacks_total``); the parallel path is an
  optimization, never a requirement.
"""

from __future__ import annotations

import itertools
import os
import pickle
from collections import OrderedDict
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

#: Parent-side task tokens: unique per submission, so telemetry merges
#: are idempotent even if a result is observed twice (pool reuse, retry).
_token_counter = itertools.count()

#: Tokens whose telemetry has already been merged, bounded LRU.
_merged_tokens: OrderedDict[str, None] = OrderedDict()
_MERGED_TOKEN_CAP = 8192


def _next_token() -> str:
    return f"{os.getpid()}:{next(_token_counter)}"


def mark_merged(token: str | None) -> bool:
    """True exactly once per token — the idempotency latch for merges."""
    if token is None:
        return True
    if token in _merged_tokens:
        return False
    _merged_tokens[token] = None
    while len(_merged_tokens) > _MERGED_TOKEN_CAP:
        _merged_tokens.popitem(last=False)
    return True


def _run_in_worker(fn: Callable, payload, token: str | None = None) -> tuple:
    """Execute ``fn(payload)`` under private telemetry sinks.

    Returns ``(value, spans, metrics, token)`` where ``spans`` is the
    worker trace as dicts and ``metrics`` is a registry snapshot — plain
    data, picklable back to the parent. The registry and trace are fresh
    per task (not per worker process), so each result carries exactly the
    deltas this task produced: a long-lived pool worker serving many
    batches can never leak counts across tasks, and ``token`` lets the
    parent merge each result at most once.
    """
    registry = MetricsRegistry()
    trace = RunTrace(label="worker")
    with use_registry(registry), use_run_trace(trace):
        value = fn(payload)
    return value, [record.to_dict() for record in trace.spans], snapshot(registry), token


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
    and reused, so repeated maps (per-epoch evaluator reruns, per-point
    allocator rebuilds) stop repaying spin-up. The pool may decline to
    parallelize (single core, workload smaller than the overhead, forked
    child); the map then runs serially in-process, which is always
    result-identical by the determinism contract.

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
    estimated_cost_s:
        Caller's estimate of the workload's total *serial* seconds; lets
        the pool skip fan-outs whose parallel saving would not cover the
        dispatch/spin-up overhead. ``None`` trusts the caller's ``jobs``.
    force:
        Bypass the pool's adaptive checks (tests use this to exercise the
        multi-process path on small machines).
    """

    def __init__(
        self,
        fn: Callable,
        *,
        jobs: int = 1,
        label: str = "train",
        estimated_cost_s: float | None = None,
        force: bool = False,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.fn = fn
        self.jobs = int(jobs)
        self.label = label
        self.estimated_cost_s = estimated_cost_s
        self.force = bool(force)

    # ------------------------------------------------------------------
    def _map_serial(self, payloads: Sequence) -> list:
        with span("parallel.map", label=self.label, jobs=1, tasks=len(payloads)):
            return [self.fn(payload) for payload in payloads]

    def _map_parallel(self, payloads: Sequence, workers: int) -> list:
        pool = get_worker_pool()
        with span("parallel.map", label=self.label, jobs=workers, tasks=len(payloads)):
            executor = pool.executor(workers)
            futures = [
                executor.submit(_run_in_worker, self.fn, payload, _next_token())
                for payload in payloads
            ]
            outcomes = [future.result() for future in futures]
        values = []
        for worker, (value, spans, metrics, token) in enumerate(outcomes):
            if mark_merged(token):
                merge_worker_metrics(metrics)
                merge_worker_spans(spans, worker=worker)
            values.append(value)
        pool.count_tasks(len(payloads), label=self.label)
        get_registry().counter(
            "repro_parallel_tasks_total",
            help="Payloads executed by ParallelTrainer worker processes",
            label=self.label,
        ).inc(len(payloads))
        return values

    def map(self, payloads: Sequence) -> list:
        """``[fn(p) for p in payloads]``, fanned out when it pays off."""
        payloads = list(payloads)
        if not payloads:
            return []
        workers = get_worker_pool().effective_jobs(
            self.jobs,
            len(payloads),
            estimated_cost_s=self.estimated_cost_s,
            force=self.force,
        )
        if workers == 1:
            return self._map_serial(payloads)
        try:
            return self._map_parallel(payloads, workers)
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
