"""Open-loop fleet simulation: SoA node state + batched calendar kernel.

:class:`FleetSimulator` is the fleet-scale mode of the edge simulator:
10k–1M nodes in hierarchical
:class:`~repro.edgesim.network.RegionalNetwork` topologies, open-loop
arrivals from :mod:`repro.serve.samplers`, node churn with the
re-dispatch semantics of the epoch simulator (lost work is re-shipped to
a surviving node), and streaming metrics through
:class:`~repro.telemetry.timeseries.TimeSeriesAggregator`. Node state
lives in preallocated numpy columns; homogeneous event cohorts (arrivals,
transfer completions, execution completions) are popped from the
calendar as batches and applied with vectorized kernels, so throughput is
dominated by numpy, not the interpreter, and memory is
O(nodes + in-flight tasks + windows) — never O(events). Cohorts never
span calendar buckets, so the only relaxation versus strict per-event
interleaving is bounded by ``bucket_s`` and fully deterministic.

The paper's single decision epoch on the 10-node testbed (Figs. 9–11)
is not simulated here: :class:`~repro.edgesim.simulator.EdgeSimulator`
is the one epoch engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.edgesim.events import CalendarQueue
from repro.edgesim.network import RegionalNetwork
from repro.edgesim.node import NODE_PRESETS
from repro.edgesim.workload import FleetWorkload
from repro.errors import ConfigurationError
from repro.serve.samplers import make_sampler
from repro.telemetry import get_registry, span
from repro.telemetry.bridge import sim_time_aggregator
from repro.telemetry.instruments import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.telemetry.timeseries import TimeSeriesAggregator, estimate_quantile
from repro.utils.rng import as_rng, derive_seeds

# Fleet-engine event kinds.
_F_ARRIVAL = 0
_F_XFER_DONE = 1
_F_EXEC_DONE = 2
_F_FAIL = 3
_F_RECOVER = 4
_F_REFILL = 5


def _segmented_fifo_ends(
    ready: np.ndarray, durations: np.ndarray, counts: np.ndarray, busy0: np.ndarray
) -> np.ndarray:
    """Completion times of FIFO resources, one per consecutive segment.

    Segment ``k`` is the next ``counts[k]`` jobs of ``ready``/``durations``,
    served in array order by a resource busy until ``busy0[k]``. Each
    segment solves ``end_i = max(ready_i, end_{i-1}) + d_i`` without a
    Python loop: with ``s = cumsum(d)``,
    ``end_i = s_i + max_{j<=i} max(busy0, ready_j - s_{j-1})``.

    Segments are laid out as rows of a matrix padded at the end (``ready``
    with ``-inf``, durations with 0), so the row-wise ``cumsum`` and
    ``maximum.accumulate`` run left to right over each segment exactly as
    the 1-D scan would: results are bitwise those of a per-segment scan.
    Rows are grouped by power-of-two length class, so padding never
    exceeds the jobs of a class and memory stays O(jobs) however skewed
    the segments are, at O(log longest segment) numpy passes.
    """
    starts = np.cumsum(counts) - counts
    ends = np.empty(len(ready), dtype=np.float64)
    classes = np.frexp(counts)[1]
    for length_class in np.unique(classes):
        rows = np.flatnonzero(classes == length_class)
        row_counts = counts[rows]
        columns = np.arange(row_counts.max())
        mask = columns < row_counts[:, None]
        index = (starts[rows][:, None] + columns)[mask]
        padded_ready = np.full(mask.shape, -np.inf)
        padded_ready[mask] = ready[index]
        padded_durations = np.zeros(mask.shape)
        padded_durations[mask] = durations[index]
        s = np.cumsum(padded_durations, axis=1)
        waits = np.maximum(padded_ready - (s - padded_durations), busy0[rows][:, None])
        ends[index] = (s + np.maximum.accumulate(waits, axis=1))[mask]
    return ends


def _segments(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, starts, counts)`` of the runs of equal values in a sorted array."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = len(sorted_keys) - starts[-1]
    return sorted_keys[starts], starts, counts


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one open-loop fleet run.

    Attributes
    ----------
    n_nodes:
        Fleet size; nodes cycle through ``node_presets`` and are
        partitioned round-robin into ``n_regions`` regions.
    duration_s:
        Arrival horizon (simulated seconds); in-flight work drains after.
    arrival_rate_hz:
        Fleet-wide open-loop arrival rate (tasks/second).
    sampler / burst_sigma:
        Inter-arrival family from :mod:`repro.serve.samplers`.
    mean_input_mbit / result_mbit:
        Workload sizes in megabits (see :mod:`repro.edgesim.network`).
    churn_rate_hz:
        Fleet-wide node-failure rate; each failed node recovers after
        ``recovery_s``. Work lost to a failure is re-dispatched to a
        surviving node in the same region (the epoch simulator's
        reassignment semantics); with a whole region down, its tasks drop.
    window_s / max_windows:
        Tumbling-window geometry of the streaming metrics ring.
    chunk:
        Arrivals generated per refill batch — the O(chunk) arrival buffer.
    bucket_s:
        Calendar-queue bucket width; also the bound on cohort batching
        skew.
    """

    n_nodes: int = 1000
    n_regions: int = 8
    duration_s: float = 60.0
    # Defaults sit at ~60% access-radio utilization (the binding resource:
    # ~0.165 s of radio per mean task, 8 radios) so the open-loop system
    # is stable and in-flight work stays bounded.
    arrival_rate_hz: float = 30.0
    sampler: str = "poisson"
    burst_sigma: float = 0.4
    mean_input_mbit: float = 8.0
    result_mbit: float = 0.1
    churn_rate_hz: float = 0.0
    recovery_s: float = 5.0
    window_s: float = 10.0
    max_windows: int = 240
    chunk: int = 8192
    bucket_s: float = 1.0
    seed: int = 0
    node_presets: tuple[str, ...] = ("rpi-a+", "rpi-b", "rpi-b+")
    network: RegionalNetwork | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_regions < 1 or self.n_regions > self.n_nodes:
            raise ConfigurationError(
                f"n_regions must be in [1, n_nodes], got {self.n_regions}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {self.duration_s}")
        if self.arrival_rate_hz <= 0:
            raise ConfigurationError(
                f"arrival_rate_hz must be > 0, got {self.arrival_rate_hz}"
            )
        if self.churn_rate_hz < 0:
            raise ConfigurationError(
                f"churn_rate_hz must be >= 0, got {self.churn_rate_hz}"
            )
        if self.recovery_s <= 0:
            raise ConfigurationError(f"recovery_s must be > 0, got {self.recovery_s}")
        if self.chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {self.chunk}")
        if not self.node_presets:
            raise ConfigurationError("node_presets must not be empty")
        for preset in self.node_presets:
            if preset not in NODE_PRESETS:
                raise ConfigurationError(f"unknown node preset {preset!r}")
        if self.network is not None and self.network.n_regions != self.n_regions:
            raise ConfigurationError(
                f"network has {self.network.n_regions} regions, config says {self.n_regions}"
            )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one open-loop fleet run.

    ``timeseries`` is the streaming aggregator (flushed): its bounded
    window ring is the run's full metric trajectory; latency percentiles
    are bucket-interpolated estimates from a run-wide histogram, so no
    per-task record survives the run.
    """

    n_nodes: int
    n_regions: int
    duration_s: float
    arrivals: int
    completed: int
    dropped: int
    redispatched: int
    failures: int
    recoveries: int
    events: int
    peak_in_flight: int
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    timeseries: TimeSeriesAggregator = field(repr=False)

    @property
    def windows(self) -> list:
        return list(self.timeseries.windows)


class _SlotPool:
    """Preallocated columnar store for in-flight tasks, with a free list.

    Columns are indexed by *slot id*; slots are recycled on completion so
    capacity tracks peak in-flight tasks, not total arrivals. Growth
    doubles the columns (amortized O(1) per task).
    """

    __slots__ = (
        "capacity", "arrival_t", "size_mbit", "node", "incarnation",
        "_free", "_top", "peak_in_use",
    )

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = int(capacity)
        self.arrival_t = np.zeros(self.capacity, dtype=np.float64)
        self.size_mbit = np.zeros(self.capacity, dtype=np.float64)
        self.node = np.full(self.capacity, -1, dtype=np.int64)
        self.incarnation = np.zeros(self.capacity, dtype=np.int64)
        self._free = np.arange(self.capacity - 1, -1, -1, dtype=np.int64)
        self._top = self.capacity
        self.peak_in_use = 0

    @property
    def in_use(self) -> int:
        return self.capacity - self._top

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        self.arrival_t = np.concatenate([self.arrival_t, np.zeros(old)])
        self.size_mbit = np.concatenate([self.size_mbit, np.zeros(old)])
        self.node = np.concatenate([self.node, np.full(old, -1, dtype=np.int64)])
        self.incarnation = np.concatenate(
            [self.incarnation, np.zeros(old, dtype=np.int64)]
        )
        free = np.empty(new, dtype=np.int64)
        free[:old] = np.arange(new - 1, old - 1, -1, dtype=np.int64)
        free[old : old + self._top] = self._free[: self._top]
        self._free = free
        self._top += old
        self.capacity = new

    def alloc(self, k: int) -> np.ndarray:
        while self._top < k:
            self._grow()
        ids = self._free[self._top - k : self._top].copy()
        self._top -= k
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        return ids

    def free(self, ids: np.ndarray) -> None:
        k = len(ids)
        self._free[self._top : self._top + k] = ids
        self._top += k


class FleetSimulator:
    """Open-loop fleet engine over structure-of-arrays node state.

    Node state lives in numpy columns built from a :class:`FleetConfig`
    (presets cycle over the nodes, regions are assigned round-robin); no
    per-node objects are materialized.
    """

    def __init__(self, config: FleetConfig) -> None:
        self.network = config.network or RegionalNetwork(n_regions=config.n_regions)
        self._config = config
        n = config.n_nodes
        rates = np.asarray(
            [NODE_PRESETS[p][0] for p in config.node_presets], dtype=np.float64
        )
        region = np.arange(n, dtype=np.int64) % config.n_regions
        self._c_s_per_bit = rates[np.arange(n) % len(rates)]
        self._c_region = region
        # Region membership as CSR: region r's nodes, ascending, are
        # _members[_member_start[r] : _member_start[r] + _member_count[r]].
        self._members = np.argsort(region, kind="stable")
        self._member_count = np.bincount(region, minlength=config.n_regions)
        self._member_start = np.cumsum(self._member_count) - self._member_count

    def _reset_nodes(self) -> None:
        """Every node alive, idle and at the head of its region's rotation:
        each run starts from the same node state, so runs repeat."""
        n = self._config.n_nodes
        self._c_alive = np.ones(n, dtype=bool)
        self._c_incarnation = np.zeros(n, dtype=np.int64)
        self._c_busy_until = np.zeros(n, dtype=np.float64)
        self._region_rr = np.zeros(self._config.n_regions, dtype=np.int64)

    def _pick_nodes(
        self, regions: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Round-robin alive nodes for a cohort grouped by region.

        Segment ``k`` asks ``counts[k]`` nodes of region ``regions[k]`` and
        occupies ``[starts[k], starts[k] + counts[k])`` of the result. A
        pick that lands on a dead node is replaced by an alive member of
        the same region; -1 marks a region with no node alive.
        """
        total = int(counts.sum())
        m = self._member_count[regions]
        pointer = self._region_rr[regions]
        offset = np.arange(total) - np.repeat(starts, counts)
        chosen = self._members[
            np.repeat(self._member_start[regions], counts)
            + (np.repeat(pointer, counts) + offset) % np.repeat(m, counts)
        ]
        self._region_rr[regions] = (pointer + counts) % m
        dead = np.flatnonzero(~self._c_alive[chosen])
        if len(dead):
            # Churn path: repair the picks of each region that hit a dead node.
            segment = np.searchsorted(starts, dead, side="right") - 1
            for k in np.unique(segment):
                region = regions[k]
                first = self._member_start[region]
                members = self._members[first : first + self._member_count[region]]
                alive_members = members[self._c_alive[members]]
                if len(alive_members) == 0:
                    chosen[starts[k] : starts[k] + counts[k]] = -1
                    continue
                hit = dead[segment == k]
                chosen[hit] = alive_members[
                    (pointer[k] + hit - starts[k]) % len(alive_members)
                ]
        return chosen

    def run(self, *, trace=None) -> FleetResult:
        """Run the open-loop fleet simulation described by the config.

        ``trace`` is an optional event sink with an ``add(TraceEvent)``
        method — a bounded :class:`~repro.edgesim.trace.Trace` ring or a
        streaming :class:`~repro.edgesim.trace.JsonlTraceSink` — which
        receives one completion span per finished task (slot id as the
        task id). Tracing costs a Python loop over completions, so it is
        off by default; memory stays bounded by the sink, never O(events).
        """
        config = self._config
        with span(
            "edgesim.fleet_run", nodes=config.n_nodes, duration_s=config.duration_s
        ):
            result = self._run_fleet(trace=trace)
        registry = get_registry()
        registry.counter(
            "repro_edgesim_fleet_runs_total", help="Open-loop fleet simulations"
        ).inc()
        registry.counter(
            "repro_edgesim_fleet_events_total",
            help="DES events processed by fleet runs",
        ).inc(result.events)
        return result

    def _run_fleet(self, *, trace=None) -> FleetResult:
        self._reset_nodes()
        config = self._config
        network: RegionalNetwork = self.network
        n_regions = config.n_regions
        arrival_seed, workload_seed, churn_seed, churn_node_seed = derive_seeds(
            config.seed, 4
        )
        sampler = make_sampler(
            config.sampler,
            config.arrival_rate_hz,
            burst_sigma=config.burst_sigma,
            seed=arrival_seed,
        )
        workload = FleetWorkload(
            config.mean_input_mbit, result_mbit=config.result_mbit, seed=workload_seed
        )
        registry, aggregator, sim_clock = sim_time_aggregator(
            window_s=config.window_s, max_windows=config.max_windows
        )
        arrivals_counter = registry.counter(
            "repro_fleet_arrivals_total", help="Open-loop task arrivals"
        )
        completions_counter = registry.counter(
            "repro_fleet_completions_total", help="Tasks whose results returned"
        )
        dropped_counter = registry.counter(
            "repro_fleet_dropped_total", help="Tasks lost to fully-failed regions"
        )
        redispatch_counter = registry.counter(
            "repro_fleet_redispatch_total", help="Tasks re-shipped after node churn"
        )
        failure_counter = registry.counter(
            "repro_fleet_failures_total", help="Node failures"
        )
        recovery_counter = registry.counter(
            "repro_fleet_recoveries_total", help="Node recoveries"
        )
        latency_hist = registry.histogram(
            "repro_fleet_latency_seconds",
            help="Arrival-to-result latency (simulated seconds)",
        )
        overall_latency = Histogram(DEFAULT_LATENCY_BUCKETS)

        calendar = CalendarQueue(config.bucket_s)
        slots = _SlotPool(min(4096, max(64, config.chunk)))
        radio_busy = np.zeros(n_regions, dtype=np.float64)
        backhaul_latency = network.backhaul.latency_s
        backhaul_bw = network.backhaul.bandwidth_mbps
        access_latency = network.access.latency_s
        access_bw = network.access.bandwidth_mbps
        result_return_tt = network.transfer_time(config.result_mbit)

        arrivals = completed = dropped = redispatched = 0
        failures = recoveries = 0
        events = 0
        region_counter = 0
        in_flight = peak_in_flight = 0

        # Churn schedule, drawn up front: O(churn events) — independent of
        # the task-event count and tiny at realistic rates.
        if config.churn_rate_hz > 0:
            churn_rng = as_rng(churn_seed)
            node_rng = as_rng(churn_node_seed)
            fail_times: list[np.ndarray] = []
            clock = 0.0
            while clock < config.duration_s:
                gaps = churn_rng.exponential(
                    1.0 / config.churn_rate_hz, size=max(16, config.chunk // 64)
                )
                # Carry the chunk boundary *inside* the cumsum so the
                # absolute times come out bitwise-identical for any chunk
                # size (left-to-right summation never restarts).
                chunk_times = np.cumsum(np.concatenate(([clock], gaps)))[1:]
                fail_times.append(chunk_times[chunk_times < config.duration_s])
                clock = float(chunk_times[-1])
            times = np.concatenate(fail_times) if fail_times else np.empty(0)
            if len(times):
                victims = node_rng.integers(0, config.n_nodes, size=len(times))
                calendar.schedule_batch(
                    times,
                    np.full(len(times), _F_FAIL, dtype=np.int32),
                    victims.astype(np.int64),
                    np.zeros(len(times), dtype=np.int64),
                )

        # The arrival-stream carry lives outside the calendar: the refill
        # event's *stored* time may be clamped forward to `now` by cohort
        # batching (`schedule_batch` clamps to the clock), so restarting
        # the cumsum from the event time would drift the stream by up to
        # `bucket_s` per refill — making the arrival process a function of
        # `chunk` and able to cross `duration_s` early. The carry always
        # holds the true last drawn arrival time.
        refill_carry = 0.0

        def refill() -> None:
            nonlocal refill_carry
            gaps = sampler.gap_chunk(config.chunk)
            # Same carry trick as the churn schedule: arrival times are a
            # pure function of the sampler stream, not of `config.chunk`.
            times = np.cumsum(np.concatenate(([refill_carry], gaps)))[1:]
            refill_carry = float(times[-1])
            exhausted = times >= config.duration_s
            times = times[~exhausted]
            if len(times) == 0:
                return
            sizes, _memory, _importance = workload.draw_chunk(len(times))
            slot_ids = slots.alloc(len(times))
            slots.arrival_t[slot_ids] = times
            slots.size_mbit[slot_ids] = sizes
            calendar.schedule_batch(
                times,
                np.full(len(times), _F_ARRIVAL, dtype=np.int32),
                slot_ids,
                np.zeros(len(times), dtype=np.int64),
            )
            if not exhausted.any():
                # More stream to come: refill once the scheduled arrivals
                # run out (equal time, later sequence — pops after them).
                calendar.schedule(float(times[-1]), _F_REFILL)

        def route(times: np.ndarray, slot_ids: np.ndarray, regions: np.ndarray) -> None:
            """Assign nodes and push transfers through each region's radio.

            One stable argsort groups the cohort by region (per-region time
            order is preserved for the radio FIFO); one segmented scan
            serves every region's radio, and all transfer completions go
            back to the calendar as one batch.
            """
            nonlocal dropped, in_flight
            order = np.argsort(regions, kind="stable")
            times, slot_ids = times[order], slot_ids[order]
            unique, starts, counts = _segments(regions[order])
            nodes = self._pick_nodes(unique, starts, counts)
            down = nodes < 0
            if down.any():
                lost = slot_ids[down]
                dropped += len(lost)
                dropped_counter.inc(len(lost))
                in_flight -= len(lost)
                slots.free(lost)
                # A region is down as a whole, so whole segments drop out.
                up = ~down[starts]
                unique, counts = unique[up], counts[up]
                keep = ~down
                times, slot_ids, nodes = times[keep], slot_ids[keep], nodes[keep]
                if len(slot_ids) == 0:
                    return
            slots.node[slot_ids] = nodes
            slots.incarnation[slot_ids] = self._c_incarnation[nodes]
            sizes = slots.size_mbit[slot_ids]
            ready = times + (backhaul_latency + sizes / backhaul_bw)
            access_durations = access_latency + sizes / access_bw
            ends = _segmented_fifo_ends(
                ready, access_durations, counts, radio_busy[unique]
            )
            radio_busy[unique] = ends[np.cumsum(counts) - 1]
            calendar.schedule_batch(
                ends,
                np.full(len(ends), _F_XFER_DONE, dtype=np.int32),
                slot_ids,
                np.zeros(len(ends), dtype=np.int64),
            )

        def redispatch(times: np.ndarray, slot_ids: np.ndarray) -> None:
            """Churn-lost work: fresh transfer to a survivor (same region)."""
            nonlocal redispatched
            redispatched += len(slot_ids)
            redispatch_counter.inc(len(slot_ids))
            stale_nodes = slots.node[slot_ids]
            route(times, slot_ids, self._c_region[stale_nodes])

        refill()
        while True:
            cohort = calendar.pop_cohort()
            if cohort is None:
                break
            kind, times, a, _b = cohort
            events += len(times)
            sim_clock[0] = calendar.now
            aggregator.maybe_tick()
            if kind == _F_ARRIVAL:
                # Counted as the events fire (not at chunk generation) so
                # the windowed arrival rate tracks simulated time.
                arrivals += len(a)
                arrivals_counter.inc(len(a))
                in_flight += len(a)
                if in_flight > peak_in_flight:
                    peak_in_flight = in_flight
                regions = (region_counter + np.arange(len(a))) % n_regions
                region_counter += len(a)
                route(times, a, regions)
            elif kind == _F_XFER_DONE:
                nodes = slots.node[a]
                valid = self._c_alive[nodes] & (
                    slots.incarnation[a] == self._c_incarnation[nodes]
                )
                if not valid.all():
                    redispatch(times[~valid], a[~valid])
                    times, a, nodes = times[valid], a[valid], nodes[valid]
                if len(a) == 0:
                    continue
                durations = (slots.size_mbit[a] * 1e6) * self._c_s_per_bit[nodes]
                order = np.argsort(nodes, kind="stable")
                unique, _starts, counts = _segments(nodes[order])
                if len(unique) == len(nodes):
                    ends = np.maximum(times, self._c_busy_until[nodes]) + durations
                    self._c_busy_until[nodes] = ends
                else:
                    node_ends = _segmented_fifo_ends(
                        times[order],
                        durations[order],
                        counts,
                        self._c_busy_until[unique],
                    )
                    self._c_busy_until[unique] = node_ends[np.cumsum(counts) - 1]
                    ends = np.empty(len(nodes), dtype=np.float64)
                    ends[order] = node_ends
                calendar.schedule_batch(
                    ends,
                    np.full(len(ends), _F_EXEC_DONE, dtype=np.int32),
                    a,
                    np.zeros(len(ends), dtype=np.int64),
                )
            elif kind == _F_EXEC_DONE:
                nodes = slots.node[a]
                valid = self._c_alive[nodes] & (
                    slots.incarnation[a] == self._c_incarnation[nodes]
                )
                if not valid.all():
                    redispatch(times[~valid], a[~valid])
                    times, a = times[valid], a[valid]
                if len(a) == 0:
                    continue
                # Result return: uncontended backhaul + access delay for a
                # tiny control frame (documented fleet-mode simplification).
                latencies = (times + result_return_tt) - slots.arrival_t[a]
                latency_hist.observe_batch(latencies)
                overall_latency.observe_batch(latencies)
                completed += len(a)
                completions_counter.inc(len(a))
                in_flight -= len(a)
                if trace is not None:
                    from repro.edgesim.trace import TraceEvent

                    arrival_times = slots.arrival_t[a]
                    for i in range(len(a)):
                        trace.add(
                            TraceEvent(
                                "result",
                                int(a[i]),
                                int(nodes[i]),
                                float(arrival_times[i]),
                                float(times[i]) + result_return_tt,
                            )
                        )
                slots.free(a)
            elif kind == _F_FAIL:
                for index in range(len(a)):
                    node = int(a[index])
                    if not self._c_alive[node]:
                        continue
                    self._c_alive[node] = False
                    self._c_incarnation[node] += 1
                    failures += 1
                    failure_counter.inc()
                    calendar.schedule(
                        float(times[index]) + config.recovery_s, _F_RECOVER, node
                    )
            elif kind == _F_RECOVER:
                for index in range(len(a)):
                    node = int(a[index])
                    self._c_alive[node] = True
                    self._c_busy_until[node] = float(times[index])
                    recoveries += 1
                    recovery_counter.inc()
            elif kind == _F_REFILL:
                refill()
            else:
                raise ConfigurationError(f"unknown fleet event kind {kind}")
        sim_clock[0] = calendar.now
        aggregator.flush()

        def quantile(q: float) -> float:
            return estimate_quantile(
                overall_latency.edges,
                overall_latency.bucket_counts,
                overall_latency.overflow,
                q,
            )

        mean = (
            overall_latency.sum / overall_latency.count if overall_latency.count else 0.0
        )
        return FleetResult(
            n_nodes=config.n_nodes,
            n_regions=n_regions,
            duration_s=config.duration_s,
            arrivals=arrivals,
            completed=completed,
            dropped=dropped,
            redispatched=redispatched,
            failures=failures,
            recoveries=recoveries,
            events=events,
            peak_in_flight=peak_in_flight,
            latency_mean_s=float(mean),
            latency_p50_s=quantile(50.0),
            latency_p95_s=quantile(95.0),
            latency_p99_s=quantile(99.0),
            timeseries=aggregator,
        )


def result_digest(result: FleetResult) -> str:
    """A short stable digest of a FleetResult, bitwise on floats.

    Floats serialize via ``float.hex`` so two digests match iff every
    scalar field and the full windowed timeseries are bit-for-bit equal:
    the identity the fleet golden and the CI fleet smoke pin.
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
