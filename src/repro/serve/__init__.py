"""Allocation-as-a-service: request/response API over the data plane.

The paper's end state is allocation decisions served to an edge fleet
under live traffic, not recomputed in one-shot experiment processes.
This package is that serving layer:

- :mod:`repro.serve.schemas` — versioned wire types
  (:class:`AllocationRequest` / :class:`AllocationResponse` /
  :class:`ServeConfig`) with ``to_dict``/``from_dict`` round-trip and
  forward-tolerant parsing.
- :mod:`repro.serve.samplers` — deterministic open-loop traffic
  generators (Poisson and Gaussian-Poisson inter-arrival) and
  :func:`generate_trace`, which renders a :class:`ServeConfig` into a
  replayable request trace.
- :mod:`repro.serve.dispatcher` — the bounded-queue ingest loop:
  admission control with 429-style shedding, cache-first answering via
  :class:`~repro.tatim.cache.AllocationCache`, and deduplicated
  in-process solves of the cache misses.
- :mod:`repro.serve.kpis` — per-request latency histograms and exact
  p50/p95/p99 + throughput/rejection KPIs through the telemetry
  registry (``repro_serve_*``), exported by the standard Prometheus/
  JSON exporters.
- :mod:`repro.serve.http` — the scrape/health boundary: a stdlib HTTP
  sidecar (:class:`ObservabilityServer`) exposing ``/metrics``,
  ``/healthz`` (SLO burn-rate verdicts), ``/kpis`` and ``/timeseries``
  for a live dispatcher.

CLI: ``repro serve`` (paced run with KPI table), ``repro loadgen``
(sustained-load measurement), and ``repro top`` (live window table).
See ``docs/serving.md``.
"""

from repro.serve.dispatcher import SOLVERS, Dispatcher, RolloutSolver, ServeReport
from repro.serve.http import ObservabilityServer
from repro.serve.kpis import KPITracker, kpi_table
from repro.serve.samplers import (
    GaussianPoissonSampler,
    PoissonSampler,
    generate_trace,
    make_sampler,
    trace_arrival_stats,
)
from repro.serve.schemas import (
    SCHEMA_VERSION,
    AllocationRequest,
    AllocationResponse,
    ServeConfig,
)

__all__ = [
    "SCHEMA_VERSION",
    "SOLVERS",
    "AllocationRequest",
    "AllocationResponse",
    "Dispatcher",
    "GaussianPoissonSampler",
    "KPITracker",
    "ObservabilityServer",
    "PoissonSampler",
    "RolloutSolver",
    "ServeConfig",
    "ServeReport",
    "generate_trace",
    "kpi_table",
    "make_sampler",
    "trace_arrival_stats",
]
