"""Region-sharded parallel fleet simulation: conservative DES fan-out.

:mod:`repro.edgesim.fleet` drains one calendar on one core. This module
takes the same engine to the whole machine:

- **Decomposition.** The fleet's regions are split into ``groups``
  contiguous *region groups*. Each group becomes an independent
  :class:`~repro.edgesim.fleet.FleetSimulator` over exactly the node
  rows a single-process run would assign those regions (slices of the
  whole-fleet SoA columns), with the fleet-wide arrival and churn rates
  thinned by the group's share of regions and nodes. Group seeds come
  from one up-front :func:`~repro.utils.rng.derive_seeds` call, so every
  group's event stream is a pure function of ``(config, group index)``
  — never of the process that happens to run it.

- **Conservative synchronization.** Regions only interact through the
  controller, so no region can affect another sooner than
  :attr:`~repro.edgesim.network.RegionalNetwork.lookahead_s` (two
  backhaul latencies). Each group drains its
  :class:`~repro.edgesim.events.CalendarQueue` cohorts freely inside
  lookahead windows of that width; at every window boundary the engine
  closes its metric windows and calls :meth:`LookaheadBarrier.exchange`,
  the rendezvous where cross-group events would be swapped. In the
  current fleet physics (open-loop arrivals, same-region redispatch,
  uncontended result return) the exchange outbox is **provably empty**
  — ``exchange`` asserts it — which is exactly what licenses running
  groups to completion without inter-process rendezvous. Physics that
  routes work across regions would put events in the outbox and turn
  the assert into a real exchange.

- **Determinism.** ``shards=1`` and ``shards=N`` run the *same* group
  simulations and merge them in the *same* (group-index) order; integer
  counters sum exactly, latency percentiles are re-derived from the
  summed histogram states, and per-group
  :func:`~repro.telemetry.bridge.sim_time_aggregator` window rings fold
  through :func:`~repro.telemetry.bridge.merge_sim_timeseries`. The
  merged :class:`~repro.edgesim.fleet.FleetResult` is therefore
  **bitwise-identical** for any shard count (pinned by
  ``tests/edgesim/test_shard.py``). Note the decomposition itself is a
  different sampling regime than the unsharded engine (each group draws
  its own thinned arrival stream), so sharded results are compared
  against sharded results, never against ``FleetSimulator.run``.

- **Transport.** Worker processes come from the persistent
  :class:`~repro.parallel.pool.WorkerPool`; the whole-fleet node columns
  are published once through the zero-copy
  :class:`~repro.parallel.shm.SharedArrayStore` plane and sliced inside
  each worker, so dispatch cost is O(groups), not O(nodes).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.edgesim.fleet import FleetConfig, FleetResult, FleetSimulator
from repro.edgesim.network import RegionalNetwork
from repro.edgesim.node import NODE_PRESETS
from repro.errors import ConfigurationError, SimulationError
from repro.parallel.pool import get_worker_pool
from repro.parallel.shm import get_shared_store, resolve_shared
from repro.telemetry import get_registry, span
from repro.telemetry.bridge import merge_sim_timeseries
from repro.telemetry.timeseries import estimate_quantile
from repro.utils.rng import derive_seeds

#: Default region-group count: enough slack to feed a big machine while
#: keeping per-group cohort batches wide. Fixed by config — NEVER by the
#: shard/CPU count — or the shards=1 == shards=N contract would break.
DEFAULT_GROUPS = 16


class LookaheadBarrier:
    """Conservative lookahead-window barrier for one group's drain loop.

    The engine calls :meth:`crossings` with the head event's timestamp
    before popping each cohort; every yielded boundary is a synchronization
    point: the engine ticks its metric windows at the boundary, then calls
    :meth:`exchange`. ``outbox`` holds events destined for other groups —
    structurally empty under the current fleet physics, which ``exchange``
    asserts (the conservative-DES safety property: nothing may cross a
    window boundary unexchanged).

    The boundary grid is ``window_s * k`` for k = 1, 2, ... — a pure
    function of the network's lookahead, so every decomposition of the
    same config crosses identical boundaries. Because the outbox is
    structurally empty between boundaries (nothing to hand over),
    consecutive crossed boundaries batch into one rendezvous at the last
    boundary before the head event — ``crossings_count`` still counts
    every boundary, and physics that actually fills the outbox would
    revert to yielding each boundary individually.
    """

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        self.window_s = float(window_s)
        self.crossings_count = 0
        self.outbox: list = []
        self._k = 1

    def crossings(self, head_time: float):
        """Boundaries in ``(previous boundary, head_time]``, batched."""
        target = int(head_time / self.window_s)
        if target >= self._k:
            # Intermediate boundaries carry a provably-empty outbox; skip
            # straight to the last one (counted, not exchanged).
            self.crossings_count += target - self._k
            boundary = target * self.window_s
            self._k = target + 1
            yield boundary

    def exchange(self, boundary_t: float) -> None:
        """The cross-group rendezvous at one window boundary."""
        self.crossings_count += 1
        if self.outbox:
            raise SimulationError(
                f"conservative window violated: {len(self.outbox)} cross-group "
                f"event(s) pending at boundary t={boundary_t:.6f}; the current "
                "fleet physics never routes work across regions, so a non-empty "
                "outbox means a causality bug"
            )


@dataclass(frozen=True)
class _GroupSpec:
    """One region group: its sub-config plus its slice of the region axis."""

    index: int
    first_region: int
    config: FleetConfig


@dataclass(frozen=True)
class _ShardTask:
    """One worker's payload: the group specs it runs + the column plane."""

    groups: tuple[_GroupSpec, ...]
    columns: object  # SharedBlobRef | dict of ndarrays


@dataclass(frozen=True)
class _GroupOutcome:
    """A group run reduced to plain picklable data.

    ``FleetResult`` itself carries a live ``TimeSeriesAggregator`` (which
    holds a lock and is not picklable), so workers ship this instead:
    the scalar counters, the run-wide latency histogram state, and the
    window ring as :class:`~repro.telemetry.timeseries.WindowSnapshot`
    rows.
    """

    index: int
    arrivals: int
    completed: int
    dropped: int
    redispatched: int
    failures: int
    recoveries: int
    events: int
    peak_in_flight: int
    latency_state: tuple
    windows: tuple = field(repr=False)
    windows_dropped: int = 0
    barrier_crossings: int = 0


@dataclass(frozen=True)
class ShardedRun:
    """A merged sharded fleet run plus how it was executed."""

    result: FleetResult
    groups: int
    shards: int
    barrier_crossings: int


def fleet_columns(config: FleetConfig) -> dict[str, np.ndarray]:
    """The whole-fleet SoA node columns (same layout as ``build()``)."""
    n = config.n_nodes
    rates = np.asarray(
        [NODE_PRESETS[p][0] for p in config.node_presets], dtype=np.float64
    )
    return {
        "s_per_bit": rates[np.arange(n) % len(rates)],
        "region": np.arange(n, dtype=np.int64) % config.n_regions,
    }


def plan_groups(config: FleetConfig, groups: int | None = None) -> list[_GroupSpec]:
    """Deterministic region-group decomposition of one fleet config.

    Regions split into ``groups`` contiguous ranges (``np.array_split``
    semantics: the first ``n_regions % groups`` ranges get one extra
    region). Each group's sub-config thins the fleet-wide arrival rate by
    its region share and the churn rate by its node share, and takes its
    seed from one up-front ``derive_seeds(config.seed, groups)`` — the
    decomposition is a pure function of ``(config, groups)``.
    """
    n_groups = DEFAULT_GROUPS if groups is None else int(groups)
    n_groups = min(n_groups, config.n_regions)
    if n_groups < 1:
        raise ConfigurationError(f"groups must be >= 1, got {n_groups}")
    network = config.network or RegionalNetwork(n_regions=config.n_regions)
    seeds = derive_seeds(config.seed, n_groups)
    # Nodes land in region r by i % n_regions, so region r holds
    # ceil((n_nodes - r) / n_regions) nodes.
    region_nodes = [
        (config.n_nodes - r + config.n_regions - 1) // config.n_regions
        for r in range(config.n_regions)
    ]
    base, extra = divmod(config.n_regions, n_groups)
    specs: list[_GroupSpec] = []
    first = 0
    for g in range(n_groups):
        g_regions = base + (1 if g < extra else 0)
        g_nodes = sum(region_nodes[first : first + g_regions])
        sub_network = RegionalNetwork(
            n_regions=g_regions, access=network.access, backhaul=network.backhaul
        )
        sub = replace(
            config,
            n_nodes=g_nodes,
            n_regions=g_regions,
            arrival_rate_hz=config.arrival_rate_hz * (g_regions / config.n_regions),
            churn_rate_hz=config.churn_rate_hz * (g_nodes / config.n_nodes),
            seed=seeds[g],
            network=sub_network,
        )
        specs.append(_GroupSpec(index=g, first_region=first, config=sub))
        first += g_regions
    return specs


def _lookahead_window(config: FleetConfig) -> float:
    network = config.network or RegionalNetwork(n_regions=config.n_regions)
    lookahead = network.lookahead_s
    return lookahead if lookahead > 0 else math.inf


def _run_group(spec: _GroupSpec, columns: dict) -> _GroupOutcome:
    """Run one region group on its slice of the whole-fleet columns."""
    region = columns["region"]
    last = spec.first_region + spec.config.n_regions
    ids = np.flatnonzero((region >= spec.first_region) & (region < last))
    sim = FleetSimulator(
        spec.config,
        s_per_bit=columns["s_per_bit"][ids],
        region=region[ids] - spec.first_region,
    )
    window_s = _lookahead_window(spec.config)
    barrier = LookaheadBarrier(window_s) if math.isfinite(window_s) else None
    result = sim._run_fleet(barrier=barrier)
    return _GroupOutcome(
        index=spec.index,
        arrivals=result.arrivals,
        completed=result.completed,
        dropped=result.dropped,
        redispatched=result.redispatched,
        failures=result.failures,
        recoveries=result.recoveries,
        events=result.events,
        peak_in_flight=result.peak_in_flight,
        latency_state=result.latency_state,
        windows=tuple(result.timeseries.windows),
        windows_dropped=result.timeseries.dropped,
        barrier_crossings=barrier.crossings_count if barrier is not None else 0,
    )


def _run_shard_worker(task: _ShardTask) -> list[_GroupOutcome]:
    """Worker entry point: attach the column plane, run assigned groups."""
    columns = resolve_shared(task.columns)
    return [_run_group(spec, columns) for spec in task.groups]


def _merge_outcomes(
    config: FleetConfig, outcomes: list[_GroupOutcome]
) -> FleetResult:
    """Fold group outcomes (in group-index order) into one FleetResult.

    Integer counters sum exactly; the latency percentiles are re-derived
    from the element-wise sum of the group histogram states — identical
    to what one histogram observing every group's samples would hold.
    ``peak_in_flight`` is the sum of per-group peaks: a deterministic
    upper bound on the true global peak (group peaks need not coincide
    in time), documented as such.
    """
    outcomes = sorted(outcomes, key=lambda o: o.index)
    edges = outcomes[0].latency_state[0]
    bucket_counts = [0] * len(edges)
    overflow = count = 0
    total = 0.0
    for outcome in outcomes:
        state_edges, counts, state_overflow, state_count, state_sum = (
            outcome.latency_state
        )
        if state_edges != edges:
            raise SimulationError("group latency histograms use different edges")
        bucket_counts = [a + b for a, b in zip(bucket_counts, counts)]
        overflow += state_overflow
        count += state_count
        total += state_sum

    def quantile(q: float) -> float:
        return estimate_quantile(edges, bucket_counts, overflow, q)

    timeseries = merge_sim_timeseries(
        [outcome.windows for outcome in outcomes],
        window_s=config.window_s,
        max_windows=config.max_windows,
    )
    timeseries.dropped += sum(o.windows_dropped for o in outcomes)
    return FleetResult(
        n_nodes=config.n_nodes,
        n_regions=config.n_regions,
        duration_s=config.duration_s,
        arrivals=sum(o.arrivals for o in outcomes),
        completed=sum(o.completed for o in outcomes),
        dropped=sum(o.dropped for o in outcomes),
        redispatched=sum(o.redispatched for o in outcomes),
        failures=sum(o.failures for o in outcomes),
        recoveries=sum(o.recoveries for o in outcomes),
        events=sum(o.events for o in outcomes),
        peak_in_flight=sum(o.peak_in_flight for o in outcomes),
        latency_mean_s=float(total / count) if count else 0.0,
        latency_p50_s=quantile(50.0),
        latency_p95_s=quantile(95.0),
        latency_p99_s=quantile(99.0),
        timeseries=timeseries,
        latency_state=(edges, tuple(bucket_counts), overflow, count, total),
    )


#: Rough single-process fleet throughput (events/s) used to estimate the
#: serial cost handed to the pool's adaptive pre-check.
_EST_EVENTS_PER_SEC = 300_000.0


def _estimated_serial_cost_s(config: FleetConfig) -> float:
    events = config.arrival_rate_hz * config.duration_s * 3.0
    events += config.churn_rate_hz * config.duration_s * 2.0
    return events / _EST_EVENTS_PER_SEC


def run_fleet_sharded(
    config: FleetConfig,
    *,
    shards: int | None = None,
    groups: int | None = None,
    force: bool = False,
) -> ShardedRun:
    """Run ``config``'s fleet as region groups across worker processes.

    ``shards`` is the requested process fan-out (default: one per CPU,
    capped by the group count); the pool's adaptive pre-check may still
    fall back to in-process execution when cores are scarce or the run
    is too small to amortize dispatch — pass ``force=True`` (or set
    ``REPRO_POOL_FORCE_PARALLEL=1``) to bypass it. ``groups`` is the
    region-group count (default ``min(n_regions, 16)``); it fixes the
    decomposition and therefore the result — the merged
    :class:`FleetResult` is bitwise-identical for every ``shards`` value
    given the same ``config`` and ``groups``.
    """
    specs = plan_groups(config, groups)
    n_groups = len(specs)
    if shards is None:
        shards = os.cpu_count() or 1
    shards = max(1, min(int(shards), n_groups))
    with span(
        "edgesim.fleet_sharded",
        nodes=config.n_nodes,
        groups=n_groups,
        shards=shards,
    ):
        pool = get_worker_pool()
        jobs = pool.effective_jobs(
            shards,
            n_groups,
            estimated_cost_s=_estimated_serial_cost_s(config),
            force=force,
        )
        columns = fleet_columns(config)
        if jobs > 1:
            store = get_shared_store()
            key = "edgesim.shard.columns"
            ref = store.share(key, columns, version=abs(hash((config, n_groups))))
            try:
                chunks = [c for c in np.array_split(np.arange(n_groups), jobs) if len(c)]
                tasks = [
                    _ShardTask(
                        groups=tuple(specs[int(i)] for i in chunk), columns=ref
                    )
                    for chunk in chunks
                ]
                executor = pool.executor(jobs)
                pool.count_tasks(len(tasks), label="edgesim_shard")
                outcomes: list[_GroupOutcome] = []
                for worker_outcomes in executor.map(_run_shard_worker, tasks):
                    outcomes.extend(worker_outcomes)
            finally:
                store.release(key)
        else:
            outcomes = [_run_group(spec, columns) for spec in specs]
        result = _merge_outcomes(config, outcomes)
    registry = get_registry()
    registry.counter(
        "repro_edgesim_fleet_sharded_runs_total",
        help="Region-sharded fleet simulations",
    ).inc()
    registry.counter(
        "repro_edgesim_fleet_events_total",
        help="DES events processed by fleet runs",
    ).inc(result.events)
    return ShardedRun(
        result=result,
        groups=n_groups,
        shards=jobs,
        barrier_crossings=sum(o.barrier_crossings for o in outcomes),
    )


def result_digest(result: FleetResult) -> str:
    """A short stable digest of a FleetResult, bitwise on floats.

    Floats serialize via ``float.hex`` so two digests match iff every
    scalar field and the full merged timeseries are bit-for-bit equal —
    the identity the sharded-smoke CI step greps for across shard
    counts.
    """
    payload = {}
    for name in (
        "n_nodes", "n_regions", "arrivals", "completed", "dropped",
        "redispatched", "failures", "recoveries", "events", "peak_in_flight",
    ):
        payload[name] = int(getattr(result, name))
    for name in (
        "duration_s", "latency_mean_s", "latency_p50_s",
        "latency_p95_s", "latency_p99_s",
    ):
        payload[name] = float(getattr(result, name)).hex()
    payload["timeseries"] = result.timeseries.to_jsonl()
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
