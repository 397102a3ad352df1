"""Versioned wire schemas for allocation-as-a-service.

The serving plane talks in three dataclasses — :class:`AllocationRequest`
(one allocation query), :class:`AllocationResponse` (its answer), and
:class:`ServeConfig` (how the dispatcher and traffic generators are
wired). All three are plain-data and JSON-ready: ``to_dict`` emits only
built-in types, ``from_dict`` round-trips them back, and every payload
carries a ``schema_version`` field.

Versioning policy
-----------------
``SCHEMA_VERSION`` is a single integer bumped on any *incompatible*
change (renamed/retyped fields). ``from_dict`` is forward-tolerant:

- **Unknown fields are ignored**, so a newer producer that *added*
  fields can talk to an older consumer without a version bump.
- Payloads from a **newer major version** (``schema_version >
  SCHEMA_VERSION``) are rejected with :class:`~repro.errors.DataError`
  rather than silently misread.
- The parsed object records the wire version it came from, so bridges
  can downgrade/upgrade explicitly.

The request deliberately carries only the *drifting* part of a TATIM
instance — the importance vector (plus solver choice); the fixed task/
processor geometry lives in the dispatcher. That mirrors the paper's deployment: geometry is
the recurring workload, importance is what the environment changes
epoch to epoch, and it is what keeps a request small enough to ingest
thousands per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, DataError

#: Current wire-format version. Bump ONLY on incompatible changes; added
#: fields are covered by ``from_dict``'s unknown-field tolerance.
SCHEMA_VERSION = 1

#: Request statuses an :class:`AllocationResponse` may carry. ``rejected``
#: is the 429-style admission-control shed or an unknown solver (see
#: ``dispatcher.py``).
RESPONSE_STATUSES = ("ok", "rejected")


def _check_version(data: Mapping, kind: str) -> int:
    version = int(data.get("schema_version", SCHEMA_VERSION))
    if version > SCHEMA_VERSION:
        raise DataError(
            f"{kind} schema_version {version} is newer than supported "
            f"{SCHEMA_VERSION}; upgrade this consumer"
        )
    if version < 1:
        raise DataError(f"{kind} schema_version must be >= 1, got {version}")
    return version


def _known_fields(cls, data: Mapping) -> dict:
    """The subset of ``data`` naming actual fields — unknown keys dropped."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in data.items() if key in names}


@dataclass(frozen=True)
class AllocationRequest:
    """One allocation query against the dispatcher's fixed geometry.

    Attributes
    ----------
    request_id:
        Caller-chosen id, echoed in the response (monotone in generated
        traces so responses can be re-ordered deterministically).
    arrival_s:
        Arrival offset in seconds from the start of the trace — the
        open-loop schedule, not a wall-clock timestamp.
    importance:
        Per-task importance vector I_j >= 0 (the environment estimate
        this epoch). Length must match the serving geometry.
    solver:
        TATIM solver name (see ``repro.serve.dispatcher.SOLVERS``).
    environment:
        Optional cache-scope hint (e.g. the CRL cluster id); requests in
        different environments never share cache entries.
    trace_id:
        Optional caller-supplied trace id. The dispatcher mints one when
        absent and echoes it in the response and on the ``serve.request``
        span its solve runs under.
    """

    request_id: int
    arrival_s: float
    importance: np.ndarray
    solver: str = "density_greedy"
    environment: str | None = None
    trace_id: str | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        importance = np.asarray(self.importance, dtype=float).ravel()
        if importance.size == 0:
            raise DataError("request importance must be non-empty")
        if np.any(importance < 0) or not np.all(np.isfinite(importance)):
            raise DataError("request importance must be finite and non-negative")
        object.__setattr__(self, "importance", importance)
        object.__setattr__(self, "request_id", int(self.request_id))
        object.__setattr__(self, "arrival_s", float(self.arrival_s))
        if self.arrival_s < 0:
            raise DataError(f"arrival_s must be >= 0, got {self.arrival_s}")

    def to_dict(self) -> dict:
        """JSON-ready plain-data form."""
        return {
            "schema_version": int(self.schema_version),
            "request_id": int(self.request_id),
            "arrival_s": float(self.arrival_s),
            "importance": [float(v) for v in self.importance],
            "solver": self.solver,
            "environment": self.environment,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AllocationRequest":
        """Parse a wire dict; unknown fields are ignored (forward compat)."""
        version = _check_version(data, "AllocationRequest")
        known = _known_fields(cls, data)
        known["schema_version"] = version
        try:
            return cls(**known)
        except TypeError as exc:
            raise DataError(f"AllocationRequest missing required field: {exc}") from exc


@dataclass(frozen=True)
class AllocationResponse:
    """The dispatcher's answer to one :class:`AllocationRequest`.

    ``status == "ok"`` carries the allocation; ``"rejected"`` is the
    admission-control shed (queue saturated) or a request naming an
    unknown solver, and carries an empty assignment. Latency fields are wall-clock measurements and therefore
    *not* part of the deterministic identity — compare responses across
    runs with :meth:`identity`. ``trace_id`` is likewise an
    observability-only echo (per-run unique), excluded from identity.
    """

    request_id: int
    status: str
    #: ``{task: processor}`` for allocated tasks (unlisted tasks stay local).
    assignment: dict[int, int] = field(default_factory=dict)
    #: Σ importance of allocated tasks under the *request's* importance.
    objective: float = 0.0
    solver: str = "density_greedy"
    cache_hit: bool = False
    queue_delay_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    trace_id: str | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise DataError(
                f"status must be one of {RESPONSE_STATUSES}, got {self.status!r}"
            )
        object.__setattr__(
            self,
            "assignment",
            {int(task): int(proc) for task, proc in dict(self.assignment).items()},
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    def identity(self) -> tuple:
        """The timing-free identity used by determinism checks.

        Two runs of the same trace must agree on this tuple for every
        response regardless of pacing or machine load.
        """
        return (
            int(self.request_id),
            self.status,
            tuple(sorted(self.assignment.items())),
            round(float(self.objective), 9),
        )

    def to_dict(self) -> dict:
        """JSON-ready plain-data form (assignment keys become strings)."""
        return {
            "schema_version": int(self.schema_version),
            "request_id": int(self.request_id),
            "status": self.status,
            "assignment": {str(task): int(proc) for task, proc in self.assignment.items()},
            "objective": float(self.objective),
            "solver": self.solver,
            "cache_hit": bool(self.cache_hit),
            "queue_delay_s": float(self.queue_delay_s),
            "service_s": float(self.service_s),
            "latency_s": float(self.latency_s),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AllocationResponse":
        """Parse a wire dict; unknown fields are ignored (forward compat)."""
        version = _check_version(data, "AllocationResponse")
        known = _known_fields(cls, data)
        known["schema_version"] = version
        if "assignment" in known:
            known["assignment"] = {
                int(task): int(proc) for task, proc in dict(known["assignment"]).items()
            }
        try:
            return cls(**known)
        except TypeError as exc:
            raise DataError(f"AllocationResponse missing required field: {exc}") from exc


#: Traffic-generator families ``ServeConfig.sampler`` may name.
SAMPLER_NAMES = ("poisson", "gauss_poisson")


@dataclass(frozen=True)
class ServeConfig:
    """How the serving plane is wired: traffic, queueing, and solving.

    Attributes
    ----------
    arrival_rate_hz:
        Mean open-loop request arrival rate.
    duration_s:
        Length of the generated trace (seconds of simulated traffic).
    sampler:
        Inter-arrival family — ``"poisson"`` (memoryless) or
        ``"gauss_poisson"`` (Gaussian-modulated rate: bursty).
    burst_sigma:
        Log-rate modulation std for ``gauss_poisson`` (ignored otherwise).
    queue_depth:
        Bound on the ingest queue; arrivals beyond it are shed with a
        429-style ``rejected`` response.
    batch_max:
        Largest batch one dispatch drains from the queue.
    jobs:
        Must be 1: every cache miss is solved in the dispatcher's own
        process. Kept so existing ``jobs=1`` callers and wire dicts still
        parse; not serialized by :meth:`to_dict`.
    solver:
        Default TATIM solver for generated requests.
    cache:
        Whether the dispatcher memoizes solves in an AllocationCache.
    n_tasks / n_processors:
        Geometry of the recurring workload the service answers for.
    drift_sigma:
        Between-request importance jitter (sub-quantization by default,
        i.e. the warm-cache drift regime of Obs. 3).
    redraw_every:
        Every k-th request redraws importance wholesale (a cache miss /
        regime change); 0 disables redraws.
    seed:
        Master seed; arrival times, drift, and redraws all derive from
        it via :func:`repro.utils.rng.derive_seeds`.
    """

    arrival_rate_hz: float = 500.0
    duration_s: float = 2.0
    sampler: str = "poisson"
    burst_sigma: float = 0.4
    queue_depth: int = 512
    batch_max: int = 64
    jobs: int = 1
    solver: str = "density_greedy"
    cache: bool = True
    n_tasks: int = 24
    n_processors: int = 4
    drift_sigma: float = 1e-9
    redraw_every: int = 50
    seed: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.arrival_rate_hz <= 0:
            raise ConfigurationError(
                f"arrival_rate_hz must be > 0, got {self.arrival_rate_hz}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {self.duration_s}")
        if self.sampler not in SAMPLER_NAMES:
            raise ConfigurationError(
                f"sampler must be one of {SAMPLER_NAMES}, got {self.sampler!r}"
            )
        if self.burst_sigma < 0:
            raise ConfigurationError(f"burst_sigma must be >= 0, got {self.burst_sigma}")
        if self.queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.batch_max < 1:
            raise ConfigurationError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.jobs != 1:
            raise ConfigurationError(
                f"jobs must be 1 (the dispatcher solves in-process), got {self.jobs}"
            )
        if self.n_tasks < 1 or self.n_processors < 1:
            raise ConfigurationError("need at least one task and one processor")
        if self.drift_sigma < 0:
            raise ConfigurationError(f"drift_sigma must be >= 0, got {self.drift_sigma}")
        if self.redraw_every < 0:
            raise ConfigurationError(
                f"redraw_every must be >= 0, got {self.redraw_every}"
            )

    def to_dict(self) -> dict:
        """JSON-ready plain-data form."""
        return {
            "schema_version": int(self.schema_version),
            "arrival_rate_hz": float(self.arrival_rate_hz),
            "duration_s": float(self.duration_s),
            "sampler": self.sampler,
            "burst_sigma": float(self.burst_sigma),
            "queue_depth": int(self.queue_depth),
            "batch_max": int(self.batch_max),
            "solver": self.solver,
            "cache": bool(self.cache),
            "n_tasks": int(self.n_tasks),
            "n_processors": int(self.n_processors),
            "drift_sigma": float(self.drift_sigma),
            "redraw_every": int(self.redraw_every),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServeConfig":
        """Parse a wire dict; unknown fields are ignored (forward compat)."""
        version = _check_version(data, "ServeConfig")
        known = _known_fields(cls, data)
        known["schema_version"] = version
        return cls(**known)
