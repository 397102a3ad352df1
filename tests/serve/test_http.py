"""ObservabilityServer: endpoint contracts over a real loopback socket."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.serve import KPITracker, ObservabilityServer
from repro.telemetry import (
    SLO,
    MetricsRegistry,
    SLOEvaluator,
    TimeSeriesAggregator,
    use_registry,
)


def _get(url: str):
    """(status, body) even for error statuses."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture()
def stack():
    """A registry + aggregator with some serving traffic in one window."""
    registry = MetricsRegistry()
    clock = [0.0]
    aggregator = TimeSeriesAggregator(
        registry, window_s=1.0, clock=lambda: clock[0]
    )
    for _ in range(10):
        registry.counter("repro_serve_requests_total", status="ok").inc()
        registry.histogram(
            "repro_serve_latency_seconds", buckets=(0.001, 0.01, 0.1)
        ).observe(0.005)
    clock[0] = 1.0
    aggregator.maybe_tick()
    return registry, aggregator, clock


class TestEndpoints:
    def test_metrics_healthz_kpis_timeseries(self, stack):
        registry, aggregator, _ = stack
        kpis = KPITracker()
        kpis.record_ok(
            latency_s=0.002, queue_delay_s=0.0, service_s=0.002,
            cache_hit=False, trace_id="t-1",
        )
        server = ObservabilityServer(
            registry=registry, aggregator=aggregator,
            kpi_supplier=kpis.snapshot_summary,
        )
        with server:
            status, body = _get(server.url + "/metrics")
            assert status == 200
            assert "repro_serve_requests_total" in body
            assert "repro_slo_burn_rate" in body  # refreshed per scrape

            status, body = _get(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            status, body = _get(server.url + "/kpis")
            assert status == 200
            payload = json.loads(body)
            assert payload["ok"] == 1
            assert payload["latency_max_trace_id"] == "t-1"

            status, body = _get(server.url + "/timeseries?last=1")
            assert status == 200
            lines = [json.loads(line) for line in body.splitlines()]
            assert lines[0]["kind"] == "meta"
            assert lines[1]["kind"] == "window"

            status, _ = _get(server.url + "/nope")
            assert status == 404

    def test_malformed_input_fails_cleanly_and_server_keeps_answering(self, stack):
        registry, aggregator, _ = stack
        with ObservabilityServer(registry=registry, aggregator=aggregator) as server:
            for last in ("abc", "1.5", "2e3"):
                status, body = _get(server.url + f"/timeseries?last={last}")
                assert status == 400
                assert json.loads(body)["error"] == f"last must be an integer, got {last!r}"
            status, body = _get(server.url + "/no/such/path?last=abc")
            assert status == 404
            assert "unknown path" in json.loads(body)["error"]
            status, body = _get(server.url + "/timeseries?last=1")
            assert status == 200
            assert json.loads(body.splitlines()[1])["kind"] == "window"

    def test_healthz_503_while_breaching(self, stack):
        registry, aggregator, _ = stack
        evaluator = SLOEvaluator(
            # Impossible objective for the recorded 5ms traffic.
            [SLO(name="lat", kind="latency", threshold_s=0.0001)],
            aggregator,
        )
        with ObservabilityServer(
            registry=registry, aggregator=aggregator, evaluator=evaluator
        ) as server:
            status, body = _get(server.url + "/healthz")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            assert payload["breaching"] == ["lat"]

    def test_kpis_empty_without_supplier(self, stack):
        registry, aggregator, _ = stack
        with ObservabilityServer(registry=registry, aggregator=aggregator) as server:
            status, body = _get(server.url + "/kpis")
            assert status == 200 and json.loads(body) == {}

    def test_without_aggregator_or_evaluator(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        with ObservabilityServer(registry=registry) as server:
            status, body = _get(server.url + "/healthz")
            assert status == 200
            status, body = _get(server.url + "/timeseries")
            assert json.loads(body.splitlines()[0])["windows"] == 0
            status, body = _get(server.url + "/metrics")
            assert "hits_total 1" in body

    def test_ambient_registry_resolved_per_scrape(self):
        server = ObservabilityServer()
        with server:
            registry = MetricsRegistry()
            with use_registry(registry):
                registry.counter("late_total").inc(2)
                _, body = _get(server.url + "/metrics")
            assert "late_total 2" in body


class TestLifecycle:
    def test_ephemeral_port_and_idempotent_stop(self):
        server = ObservabilityServer(registry=MetricsRegistry())
        port = server.start()
        assert port > 0
        assert server.start() == port  # second start is a no-op
        assert server.url.endswith(str(port))
        server.stop()
        server.stop()

    def test_url_before_start_raises(self):
        with pytest.raises(ConfigurationError):
            ObservabilityServer().url

    def test_negative_port_rejected(self):
        with pytest.raises(ConfigurationError):
            ObservabilityServer(port=-1)

    def test_tick_thread_closes_windows(self, stack):
        registry, _, _ = stack
        # Real clock this time: a tiny window means the tick thread must
        # close windows without any serving-loop cooperation.
        aggregator = TimeSeriesAggregator(registry, window_s=0.05)
        import time

        with ObservabilityServer(registry=registry, aggregator=aggregator) as server:
            deadline = time.time() + 5.0
            while not len(aggregator.windows) and time.time() < deadline:
                time.sleep(0.02)
            assert len(aggregator.windows) >= 1
