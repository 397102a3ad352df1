"""Unified telemetry: metrics, spans/traces, exporters, structured logs.

The observability layer for the DCTA pipeline — dependency-free (stdlib
only) and zero-cost when off. Three coordinated pieces:

- **Metrics** — a process-wide :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments with
  label support. Disabled by default (:class:`NullRegistry` hands out
  shared no-op instruments); the CLI's ``--metrics-out`` installs a real
  one. Names follow ``repro_<subsystem>_<name>_<unit>``.
- **Spans** — :func:`span` context managers nest into a per-run
  :class:`RunTrace` on a monotonic clock; traces serialize to JSONL and
  render a text flame summary. :func:`record_edgesim_trace` bridges the
  edge DES's reconstructed event timeline into the same sink.
- **Exporters / logs** — Prometheus text exposition and JSON snapshots
  of the registry, plus a stdlib ``logging`` wrapper with a compact
  key=value formatter for structured run logs.
- **Time series / SLOs** — :class:`TimeSeriesAggregator` folds registry
  deltas into a bounded ring of tumbling windows (O(windows) memory for
  arbitrarily long runs); :class:`SLOEvaluator` grades declarative
  :class:`SLO` objectives against that ring with multi-window burn
  rates, feeding ``/healthz`` and the ``repro_slo_*`` gauges.

See ``docs/observability.md`` for the instrument catalog and CLI usage.
"""

from repro.telemetry.instruments import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
)
from repro.telemetry.registry import (
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    reset_registry,
    set_registry,
    telemetry_enabled,
    use_registry,
)
from repro.telemetry.spans import (
    RunTrace,
    SpanRecord,
    current_run_trace,
    set_run_trace,
    span,
    use_run_trace,
)
from repro.telemetry.timeseries import (
    TimeSeriesAggregator,
    WindowSnapshot,
    estimate_quantile,
    merge_timeseries,
    parse_timeseries_jsonl,
    read_timeseries_jsonl,
    timeseries_table,
)
from repro.telemetry.slo import (
    SLO,
    SLOEvaluator,
    SLOStatus,
    default_serve_slos,
    slo_table,
)
from repro.telemetry.exporters import (
    metrics_table,
    snapshot,
    snapshot_table,
    to_json,
    to_prometheus,
    write_metrics_json,
)
from repro.telemetry.bridge import (
    edgesim_timeseries,
    merge_sim_timeseries,
    record_edgesim_trace,
)
from repro.telemetry.log import (
    KeyValueFormatter,
    configure_logging,
    get_logger,
    kv,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "reset_registry",
    "set_registry",
    "telemetry_enabled",
    "use_registry",
    "RunTrace",
    "SpanRecord",
    "current_run_trace",
    "set_run_trace",
    "span",
    "use_run_trace",
    "TimeSeriesAggregator",
    "WindowSnapshot",
    "estimate_quantile",
    "merge_timeseries",
    "parse_timeseries_jsonl",
    "read_timeseries_jsonl",
    "timeseries_table",
    "SLO",
    "SLOEvaluator",
    "SLOStatus",
    "default_serve_slos",
    "slo_table",
    "metrics_table",
    "snapshot",
    "snapshot_table",
    "to_json",
    "to_prometheus",
    "write_metrics_json",
    "edgesim_timeseries",
    "merge_sim_timeseries",
    "record_edgesim_trace",
    "KeyValueFormatter",
    "configure_logging",
    "get_logger",
    "kv",
]
