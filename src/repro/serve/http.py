"""HTTP scrape/health boundary for the serving plane — stdlib only.

:class:`ObservabilityServer` is a sidecar :class:`ThreadingHTTPServer`
that exposes the live telemetry surface of a running dispatcher:

- ``GET /metrics`` — Prometheus text exposition (format 0.0.4) of the
  registry, with the ``repro_slo_*`` gauges refreshed just before
  rendering so every scrape carries current burn rates;
- ``GET /healthz`` — JSON SLO verdicts; HTTP 200 while all SLOs hold,
  503 while any is breaching (multi-window burn-rate rule, see
  :mod:`repro.telemetry.slo`);
- ``GET /kpis`` — the live KPI summary (plus recent latency→trace-id
  exemplars) from a :class:`~repro.serve.kpis.KPITracker`;
- ``GET /timeseries`` — the aggregator's window ring as JSONL
  (``?last=N`` bounds the tail), the payload ``repro top`` renders.

The server owns a small tick thread so windows keep closing and SLO
gauges stay fresh even when the serving loop is stalled or between
requests. Everything is daemonic and bounded: ``stop()`` (or the
context manager) shuts both threads down.

Thread-safety: registry instruments carry no locks (the serving hot
path must not pay for them), so a scrape can race a concurrent insert
of a *new* label set mid-iteration. The handler retries the render a
few times on ``RuntimeError`` — losing one scrape attempt is fine,
corrupting the hot path is not.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigurationError
from repro.telemetry import (
    SLOEvaluator,
    TimeSeriesAggregator,
    default_serve_slos,
    get_logger,
    get_registry,
    kv,
    to_prometheus,
)

#: Render retries per scrape when a concurrent label-set insert races
#: the iteration (see module docstring).
_RENDER_RETRIES = 3

#: Prometheus text exposition content type.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes the four observability endpoints; everything else is 404."""

    #: Set by :class:`ObservabilityServer` on the server object.
    server_version = "repro-observability/1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (scrapes are periodic)."""

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, data: dict) -> None:
        self._send(status, json.dumps(data, indent=2) + "\n", "application/json")

    def _retrying(self, render):
        last_error: Exception | None = None
        for _ in range(_RENDER_RETRIES):
            try:
                return render()
            except RuntimeError as exc:  # dict mutated during iteration
                last_error = exc
        raise last_error  # pragma: no cover - needs a 3x repeated race

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        owner: "ObservabilityServer" = self.server.owner  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/metrics":
                self._send(200, self._retrying(owner.render_metrics), _PROM_CONTENT_TYPE)
            elif parsed.path == "/healthz":
                payload = self._retrying(owner.render_healthz)
                status = 200 if payload.get("status") == "ok" else 503
                self._send_json(status, payload)
            elif parsed.path == "/kpis":
                self._send_json(200, self._retrying(owner.render_kpis))
            elif parsed.path == "/timeseries":
                last = parse_qs(parsed.query).get("last")
                if last is not None:
                    try:
                        last = max(1, int(last[0]))
                    except ValueError:
                        self._send_json(
                            400, {"error": f"last must be an integer, got {last[0]!r}"}
                        )
                        return
                body = self._retrying(lambda: owner.render_timeseries(last=last))
                self._send(200, body, "application/x-ndjson")
            else:
                self._send_json(404, {"error": f"unknown path {parsed.path!r}"})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # never kill the scrape thread
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass


class ObservabilityServer:
    """Background HTTP sidecar serving ``/metrics`` ``/healthz`` ``/kpis`` ``/timeseries``.

    Parameters
    ----------
    port:
        TCP port to bind; ``0`` (the default) picks an ephemeral port —
        read the actual one from :meth:`start`'s return or :attr:`port`.
    host:
        Bind address; loopback by default (this is a diagnostics
        sidecar, not a public API).
    registry:
        Metrics registry to scrape. ``None`` resolves the ambient
        registry *per scrape*, so a registry installed after the server
        starts is still picked up.
    aggregator:
        Optional :class:`~repro.telemetry.TimeSeriesAggregator` backing
        ``/timeseries``; its ``maybe_tick`` runs on the tick thread.
    evaluator:
        Optional :class:`~repro.telemetry.SLOEvaluator` backing
        ``/healthz`` and the ``repro_slo_*`` gauges. When omitted but an
        aggregator is given, the stock serving SLOs are installed.
    kpi_supplier:
        Zero-arg callable returning the ``/kpis`` JSON dict (e.g.
        ``tracker.snapshot_summary``). ``None`` serves an empty dict.
    """

    def __init__(
        self,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        registry=None,
        aggregator: TimeSeriesAggregator | None = None,
        evaluator: SLOEvaluator | None = None,
        kpi_supplier=None,
    ) -> None:
        if port < 0:
            raise ConfigurationError(f"port must be >= 0, got {port}")
        self._host = host
        self._requested_port = int(port)
        self._registry = registry
        self.aggregator = aggregator
        if evaluator is None and aggregator is not None:
            evaluator = SLOEvaluator(default_serve_slos(), aggregator)
        self.evaluator = evaluator
        self._kpi_supplier = kpi_supplier
        self._httpd: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._tick_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.port: int | None = None

    # ------------------------------------------------------------------
    def _resolve_registry(self):
        return self._registry if self._registry is not None else get_registry()

    def render_metrics(self) -> str:
        """The ``/metrics`` body: refresh SLO gauges, then expose."""
        registry = self._resolve_registry()
        if self.evaluator is not None:
            self.evaluator.publish(registry)
        return to_prometheus(registry)

    def render_healthz(self) -> dict:
        """The ``/healthz`` payload (``status: ok`` without SLO wiring)."""
        if self.evaluator is None:
            return {"status": "ok", "breaching": [], "slos": []}
        return self.evaluator.healthz()

    def render_kpis(self) -> dict:
        """The ``/kpis`` payload from the configured supplier."""
        if self._kpi_supplier is None:
            return {}
        return dict(self._kpi_supplier())

    def render_timeseries(self, *, last: int | None = None) -> str:
        """The ``/timeseries`` JSONL body (empty meta without aggregator)."""
        if self.aggregator is None:
            return json.dumps({"kind": "meta", "windows": 0}) + "\n"
        self.aggregator.maybe_tick()
        return self.aggregator.to_jsonl(last=last)

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the running server (valid after :meth:`start`)."""
        if self.port is None:
            raise ConfigurationError("server not started; call start() first")
        return f"http://{self._host}:{self.port}"

    def start(self) -> int:
        """Bind, spin up the serve + tick threads; returns the bound port."""
        if self._httpd is not None:
            return self.port  # type: ignore[return-value]
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self.port = int(self._httpd.server_address[1])
        self._stop.clear()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-observability-http",
            daemon=True,
        )
        self._serve_thread.start()
        if self.aggregator is not None:
            self._tick_thread = threading.Thread(
                target=self._tick_loop,
                name="repro-observability-tick",
                daemon=True,
            )
            self._tick_thread.start()
        get_logger("serve.http").info(
            kv(event="observability_server_started", host=self._host, port=self.port)
        )
        return self.port

    def _tick_loop(self) -> None:
        interval = min(self.aggregator.window_s / 2.0, 0.25)
        while not self._stop.wait(max(interval, 0.01)):
            try:
                self.aggregator.maybe_tick()
                if self.evaluator is not None:
                    self.evaluator.publish(self._resolve_registry())
            except Exception:  # keep ticking; scrape paths surface errors
                pass

    def stop(self) -> None:
        """Shut down both threads (idempotent)."""
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=2.0)
            self._serve_thread = None
        if self._tick_thread is not None:
            self._tick_thread.join(timeout=2.0)
            self._tick_thread = None

    def __enter__(self) -> "ObservabilityServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
