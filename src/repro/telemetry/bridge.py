"""Bridge: edge-DES traces flow into the telemetry span sink.

:class:`repro.edgesim.trace.TracingSimulator` reconstructs per-task
transfer/execution spans on the *simulated* clock. Rather than keeping
that a parallel tracing system, this bridge folds a finished
``edgesim.trace.Trace`` into the active :class:`RunTrace`: one parent
span per epoch (``edgesim.epoch``) whose children are the DES events
(``edgesim.input`` / ``edgesim.execution`` / ``edgesim.result``), all
tagged ``clock="sim"`` since their timestamps are simulated seconds, not
wall-clock offsets.

The bridge is duck-typed over ``trace.events`` (objects with ``kind``,
``task_id``, ``node_id``, ``start``, ``end``) so telemetry keeps zero
imports from ``repro.edgesim``.
"""

from __future__ import annotations

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import RunTrace, current_run_trace
from repro.telemetry.timeseries import TimeSeriesAggregator


def record_edgesim_trace(
    trace,
    *,
    run_trace: RunTrace | None = None,
    prefix: str = "edgesim",
    label: str | None = None,
) -> int:
    """Fold a DES ``Trace`` into the span sink; returns spans added.

    Targets ``run_trace`` when given, otherwise the active process-wide
    trace; with neither, it is a no-op returning 0 (the same
    off-by-default contract as :func:`repro.telemetry.span`).
    """
    target = run_trace if run_trace is not None else current_run_trace()
    if target is None:
        return 0
    events = list(trace.events)
    attrs: dict = {"clock": "sim", "events": len(events)}
    if label is not None:
        attrs["label"] = label
    decision_time = getattr(trace, "decision_time", None)
    if decision_time is not None:
        attrs["decision_time"] = decision_time
    start = min((e.start for e in events), default=0.0)
    end = max((e.end for e in events), default=start)
    parent = target.add_span(f"{prefix}.epoch", start, end, attrs=attrs)
    for event in events:
        target.add_span(
            f"{prefix}.{event.kind}",
            event.start,
            event.end,
            attrs={
                "clock": "sim",
                "task_id": int(event.task_id),
                "node_id": int(event.node_id),
            },
            parent=parent,
        )
    return len(events) + 1


#: Bucket edges (simulated seconds) for the windowed DES bridge — DES
#: event durations span transfer milliseconds to multi-minute executions.
_EDGESIM_EVENT_BUCKETS: tuple[float, ...] = (
    0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)


def edgesim_timeseries(
    trace,
    *,
    window_s: float = 60.0,
    max_windows: int = 240,
    prefix: str = "repro_edgesim",
) -> TimeSeriesAggregator:
    """Bucket a DES ``Trace`` into tumbling windows on the *simulated* clock.

    The fleet-scale counterpart of :func:`record_edgesim_trace`: instead
    of one span per event (O(events) memory), events stream through a
    private registry into a :class:`TimeSeriesAggregator` whose clock is
    the event timeline — so an arbitrarily long simulation folds into at
    most ``max_windows`` windows of per-kind event rates and duration
    percentiles. Duck-typed over ``trace.events`` like the span bridge.

    Returns the aggregator (flushed; read ``.windows`` or export with
    ``.to_jsonl()``).
    """
    sim_clock = [0.0]
    registry = MetricsRegistry()
    aggregator = TimeSeriesAggregator(
        registry,
        window_s=window_s,
        max_windows=max_windows,
        clock=lambda: sim_clock[0],
    )
    for event in sorted(trace.events, key=lambda e: (e.end, e.start)):
        sim_clock[0] = float(event.end)
        aggregator.maybe_tick()
        kind = str(event.kind)
        registry.counter(
            f"{prefix}_events_total",
            help="DES events completed (windowed bridge)",
            kind=kind,
        ).inc()
        registry.histogram(
            f"{prefix}_event_seconds",
            buckets=_EDGESIM_EVENT_BUCKETS,
            help="DES event duration in simulated seconds",
            kind=kind,
        ).observe(float(event.end) - float(event.start))
    aggregator.flush()
    return aggregator


def sim_time_aggregator(
    *,
    window_s: float = 10.0,
    max_windows: int = 240,
    quantiles: tuple[float, ...] | None = None,
) -> tuple[MetricsRegistry, TimeSeriesAggregator, list]:
    """A private registry + aggregator pair clocked on simulated time.

    The *live* counterpart of :func:`edgesim_timeseries`: instead of
    post-processing a finished trace, a running engine (the fleet DES)
    records into the returned registry as it goes and drives the windows
    itself. Returns ``(registry, aggregator, sim_clock)`` where
    ``sim_clock`` is a one-element list — write ``sim_clock[0] = now``
    and call ``aggregator.maybe_tick()`` from the event loop. Memory is
    O(instrument children + windows), never O(events).
    """
    sim_clock = [0.0]
    registry = MetricsRegistry()
    kwargs: dict = {}
    if quantiles is not None:
        kwargs["quantiles"] = quantiles
    aggregator = TimeSeriesAggregator(
        registry,
        window_s=window_s,
        max_windows=max_windows,
        clock=lambda: sim_clock[0],
        **kwargs,
    )
    return registry, aggregator, sim_clock
