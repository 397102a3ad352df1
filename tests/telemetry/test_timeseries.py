"""Tumbling-window aggregator: deltas, ring bounds, catch-up, serialization."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, DataError
from repro.telemetry import (
    MetricsRegistry,
    TimeSeriesAggregator,
    WindowSnapshot,
    estimate_quantile,
    parse_timeseries_jsonl,
    read_timeseries_jsonl,
    timeseries_table,
    use_registry,
)


def make_clocked(registry=None, **kwargs):
    """(aggregator, clock-cell) pair on a fully controlled clock."""
    clock = [0.0]
    agg = TimeSeriesAggregator(registry, clock=lambda: clock[0], **kwargs)
    return agg, clock


class TestEstimateQuantile:
    def test_interpolates_within_bucket(self):
        # 10 observations all in the (0.1, 0.2] bucket: p50 lands mid-bucket.
        edges = (0.1, 0.2, 0.4)
        assert estimate_quantile(edges, [0, 10, 0], 0, 50.0) == pytest.approx(0.15)

    def test_first_bucket_interpolates_from_zero(self):
        assert estimate_quantile((0.1, 0.2), [10, 0], 0, 50.0) == pytest.approx(0.05)

    def test_overflow_clamps_to_last_edge(self):
        assert estimate_quantile((0.1, 0.2), [1, 0], 9, 99.0) == pytest.approx(0.2)

    def test_empty_window_is_zero(self):
        assert estimate_quantile((0.1,), [0], 0, 99.0) == 0.0


class TestWindowing:
    def test_counter_delta_and_rate(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=2.0)
        registry.counter("hits_total").inc(10)
        clock[0] = 2.0
        assert agg.maybe_tick() == 1
        (window,) = agg.windows
        (row,) = window.rows
        assert row["kind"] == "counter"
        assert row["delta"] == 10.0
        assert row["rate_per_s"] == pytest.approx(5.0)
        # next window sees only the *new* movement
        registry.counter("hits_total").inc(4)
        clock[0] = 4.0
        agg.maybe_tick()
        assert agg.windows[-1].rows[0]["delta"] == 4.0

    def test_quiet_windows_store_no_rows(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0)
        registry.counter("hits_total").inc()
        clock[0] = 3.0
        agg.maybe_tick()
        assert [len(w.rows) for w in agg.windows] == [1, 0, 0]

    def test_gauge_reported_only_on_change(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0)
        registry.gauge("depth").set(7)
        clock[0] = 1.0
        agg.maybe_tick()
        clock[0] = 2.0
        agg.maybe_tick()
        registry.gauge("depth").set(9)
        clock[0] = 3.0
        agg.maybe_tick()
        kinds = [[r["value"] for r in w.rows] for w in agg.windows]
        assert kinds == [[7.0], [], [9.0]]

    def test_histogram_row_shape(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0)
        hist = registry.histogram("lat_seconds", buckets=(0.1, 0.2, 0.4))
        for _ in range(10):
            hist.observe(0.15)
        clock[0] = 1.0
        agg.maybe_tick()
        (row,) = agg.windows[0].rows
        assert row["count_delta"] == 10
        assert row["mean"] == pytest.approx(0.15)
        assert row["p50"] == pytest.approx(0.15)  # mid-bucket interpolation
        assert row["le"] == {"0.1": 0, "0.2": 10, "0.4": 10}

    def test_flush_closes_partial_window(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0)
        registry.counter("hits_total").inc()
        clock[0] = 0.4
        assert agg.maybe_tick() == 0
        assert agg.flush() == 1
        assert agg.windows[0].end_s == pytest.approx(0.4)

    def test_ambient_registry_resolved_at_tick_time(self):
        agg, clock = make_clocked(None, window_s=1.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            registry.counter("hits_total").inc(3)
            clock[0] = 1.0
            agg.maybe_tick()
        assert agg.windows[0].rows[0]["delta"] == 3.0


class TestBoundedMemory:
    def test_ring_and_baseline_stay_bounded(self):
        """The O(windows) claim: many events/windows, fixed footprint."""
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0, max_windows=64)
        counter = registry.counter("events_total")
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for step in range(1000):
            counter.inc(100)
            hist.observe(0.05)
            clock[0] = float(step + 1)
            agg.maybe_tick()
        assert len(agg.windows) == 64
        assert agg.dropped == 1000 - 64
        # Baseline state is per-instrument, never per-event.
        assert len(agg._baseline) == 2

    def test_stall_fast_forwards_past_dead_windows(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0, max_windows=8)
        registry.counter("events_total").inc(5)
        clock[0] = 1000.0
        agg.maybe_tick()
        assert len(agg.windows) == 8
        # the absorbing window got the backlog; later windows are empty
        assert agg.windows[0].rows[0]["delta"] == 5.0
        assert all(not w.rows for w in list(agg.windows)[1:])
        # indices line up with the clock again afterwards
        registry.counter("events_total").inc()
        clock[0] = 1001.0
        agg.maybe_tick()
        assert agg.windows[-1].index == 1000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimeSeriesAggregator(window_s=0.0)
        with pytest.raises(ConfigurationError):
            TimeSeriesAggregator(max_windows=0)


class TestSerialization:
    def _populated(self):
        registry = MetricsRegistry()
        agg, clock = make_clocked(registry, window_s=1.0)
        for step in range(3):
            registry.counter("repro_serve_requests_total", status="ok").inc(step + 1)
            registry.histogram(
                "repro_serve_latency_seconds", buckets=(0.001, 0.01, 0.1)
            ).observe(0.005)
            clock[0] = float(step + 1)
            agg.maybe_tick()
        return agg

    def test_jsonl_round_trip(self, tmp_path):
        agg = self._populated()
        path = tmp_path / "timeseries.jsonl"
        agg.write_jsonl(path)
        meta, windows = read_timeseries_jsonl(path)
        assert meta["window_s"] == 1.0
        assert meta["windows"] == 3
        assert [w.index for w in windows] == [0, 1, 2]
        assert windows[0].rows == list(agg.windows)[0].rows

    def test_last_limits_serialized_tail(self):
        agg = self._populated()
        meta, windows = parse_timeseries_jsonl(agg.to_jsonl(last=2))
        assert meta["windows"] == 2
        assert [w.index for w in windows] == [1, 2]

    def test_unknown_line_kinds_skipped(self):
        text = json.dumps({"kind": "future-extension"}) + "\n"
        meta, windows = parse_timeseries_jsonl(text)
        assert meta == {} and windows == []

    def test_malformed_line_raises_data_error(self):
        with pytest.raises(DataError):
            parse_timeseries_jsonl("{not json}\n")
        with pytest.raises(DataError):
            parse_timeseries_jsonl("[1, 2]\n")
        with pytest.raises(DataError):
            WindowSnapshot.from_dict({"index": "x"})

    def test_table_prefers_serving_families(self):
        agg = self._populated()
        table = agg.table(last=2)
        assert "serve_requests/s" in table
        assert "p99 (ms)" in table

    def test_table_handles_empty(self):
        assert timeseries_table([]) == "(no windows recorded)"
