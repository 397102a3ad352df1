"""Open-loop traffic generators for the serving plane.

Two inter-arrival families, both deterministic under a fixed seed:

- :class:`PoissonSampler` — memoryless exponential gaps at a constant
  rate; the classical open-loop arrival process.
- :class:`GaussianPoissonSampler` — a doubly-stochastic (Cox) process:
  each gap's instantaneous rate is the base rate modulated by a
  log-Gaussian factor, producing the bursty traffic real edge fleets
  see. ``burst_sigma = 0`` degenerates to plain Poisson with the same
  draws-per-gap, so the two families are comparable seed-for-seed.

:func:`generate_trace` turns a :class:`~repro.serve.schemas.ServeConfig`
into a full deterministic request trace (geometry + timed
:class:`~repro.serve.schemas.AllocationRequest` list): arrival times,
importance drift, and regime redraws each consume an independent seed
derived up front via :func:`repro.utils.rng.derive_seeds`, so the trace
is a pure function of ``config`` — the contract the served-answer
golden (and any replayed incident) rests on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.schemas import AllocationRequest, ServeConfig
from repro.tatim.generators import random_instance
from repro.tatim.problem import TATIMProblem
from repro.utils.rng import as_rng, derive_seeds


class PoissonSampler:
    """Exponential inter-arrival gaps at a constant ``rate_hz``."""

    name = "poisson"

    def __init__(self, rate_hz: float, *, seed=None) -> None:
        if rate_hz <= 0:
            raise ConfigurationError(f"rate_hz must be > 0, got {rate_hz}")
        self.rate_hz = float(rate_hz)
        self._rng = as_rng(seed)

    def next_gap(self) -> float:
        """One inter-arrival gap in seconds."""
        return float(self._rng.exponential(1.0 / self.rate_hz))

    def gap_chunk(self, n: int) -> np.ndarray:
        """``n`` inter-arrival gaps drawn as one vectorized batch.

        Deterministic under a fixed seed; used by the fleet engine to
        generate arrivals chunk-by-chunk so memory stays O(chunk) rather
        than O(total arrivals). The chunked stream is draw-for-draw
        identical to repeated :meth:`next_gap` calls on a same-seed
        sampler, and invariant to how the draws are partitioned into
        chunks — the contract the fleet engine's chunk-size independence
        rests on (pinned by ``tests/serve/test_samplers``).
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        return self._rng.exponential(1.0 / self.rate_hz, size=n)

    def arrival_times(self, n: int) -> np.ndarray:
        """The first ``n`` arrival offsets (seconds, strictly ordered)."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        return np.cumsum([self.next_gap() for _ in range(n)])

    def arrivals_until(self, duration_s: float) -> np.ndarray:
        """Every arrival offset strictly inside ``[0, duration_s)``."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {duration_s}")
        offsets: list[float] = []
        clock = self.next_gap()
        while clock < duration_s:
            offsets.append(clock)
            clock += self.next_gap()
        return np.asarray(offsets)


class GaussianPoissonSampler(PoissonSampler):
    """Poisson arrivals whose rate is log-Gaussian-modulated per gap.

    Each gap draws a factor ``exp(sigma * z - sigma^2 / 2)`` (``z`` a
    standard normal), so the *mean* instantaneous rate stays ``rate_hz``
    while bursts (factor >> 1 → short gaps) and lulls cluster — the
    coefficient of variation of the gaps grows with ``burst_sigma``.

    The modulation normals and the exponential bases come from two
    independent substreams derived from the seed, so the per-gap draws
    never interleave on one stream. That makes :meth:`gap_chunk` exactly
    the vectorization of :meth:`next_gap` — same gaps in any chunking —
    which the fleet engine's chunk-size invariance depends on.
    """

    name = "gauss_poisson"

    def __init__(self, rate_hz: float, *, burst_sigma: float = 0.4, seed=None) -> None:
        super().__init__(rate_hz, seed=seed)
        if burst_sigma < 0:
            raise ConfigurationError(f"burst_sigma must be >= 0, got {burst_sigma}")
        self.burst_sigma = float(burst_sigma)
        z_seed, exp_seed = derive_seeds(self._rng, 2)
        self._z_rng = as_rng(z_seed)
        self._exp_rng = as_rng(exp_seed)

    def next_gap(self) -> float:
        sigma = self.burst_sigma
        factor = float(np.exp(sigma * self._z_rng.standard_normal() - sigma * sigma / 2.0))
        return float(self._exp_rng.exponential(1.0)) / (self.rate_hz * factor)

    def gap_chunk(self, n: int) -> np.ndarray:
        """Vectorized batch of ``n`` modulated gaps (see base class note)."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        sigma = self.burst_sigma
        z = self._z_rng.standard_normal(n)
        factor = np.exp(sigma * z - sigma * sigma / 2.0)
        return self._exp_rng.exponential(1.0, size=n) / (self.rate_hz * factor)


def make_sampler(
    name: str, rate_hz: float, *, burst_sigma: float = 0.4, seed=None
) -> PoissonSampler:
    """Sampler factory keyed by ``ServeConfig.sampler`` names."""
    if name == "poisson":
        return PoissonSampler(rate_hz, seed=seed)
    if name == "gauss_poisson":
        return GaussianPoissonSampler(rate_hz, burst_sigma=burst_sigma, seed=seed)
    raise ConfigurationError(f"unknown sampler {name!r}; use poisson or gauss_poisson")


def generate_trace(
    config: ServeConfig, *, geometry: TATIMProblem | None = None
) -> tuple[TATIMProblem, list[AllocationRequest]]:
    """Deterministic (geometry, requests) for one open-loop serving run.

    Seeds split up front: geometry, arrivals, drift, and redraws each get
    their own stream, so e.g. lengthening the trace never perturbs the
    geometry. Importance follows the drift regime of Obs. 3 — tiny
    Gaussian jitter per request (sub-quantization at the default
    ``drift_sigma``, so consecutive requests are cache-equal) with a
    wholesale redraw every ``redraw_every`` requests standing in for a
    regime change.
    """
    geometry_seed, arrival_seed, drift_seed, redraw_seed = derive_seeds(config.seed, 4)
    if geometry is None:
        geometry = random_instance(
            config.n_tasks, config.n_processors, seed=geometry_seed
        )
    sampler = make_sampler(
        config.sampler,
        config.arrival_rate_hz,
        burst_sigma=config.burst_sigma,
        seed=arrival_seed,
    )
    arrivals = sampler.arrivals_until(config.duration_s)
    drift_rng = as_rng(drift_seed)
    redraw_rng = as_rng(redraw_seed)
    base = np.asarray(geometry.importance, dtype=float)
    current = base.copy()
    requests: list[AllocationRequest] = []
    for index, arrival in enumerate(arrivals):
        if config.redraw_every and index and index % config.redraw_every == 0:
            current = redraw_rng.uniform(0.05, 1.0, size=base.size)
        importance = current
        if config.drift_sigma > 0:
            importance = np.abs(
                current + drift_rng.normal(0.0, config.drift_sigma, size=base.size)
            )
        requests.append(
            AllocationRequest(
                request_id=index,
                arrival_s=float(arrival),
                importance=importance,
                solver=config.solver,
            )
        )
    return geometry, requests


def trace_arrival_stats(requests: Sequence[AllocationRequest]) -> dict:
    """Gap mean/CV of a trace — sanity numbers for logs and tests."""
    if len(requests) < 2:
        return {"n": len(requests), "gap_mean_s": 0.0, "gap_cv": 0.0}
    arrivals = np.asarray([r.arrival_s for r in requests])
    gaps = np.diff(arrivals)
    mean = float(gaps.mean())
    return {
        "n": len(requests),
        "gap_mean_s": mean,
        "gap_cv": float(gaps.std() / mean) if mean > 0 else 0.0,
    }
