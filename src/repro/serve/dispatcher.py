"""The allocation-as-a-service ingest loop.

:class:`Dispatcher` turns the one-shot allocation pipeline into a
long-running service: requests arrive on an open-loop schedule, wait in
a **bounded queue**, and are drained in batches answered in this
process. The heavy lifting reuses the existing data plane:

- the :class:`~repro.tatim.cache.AllocationCache` memoizes solves keyed
  on ``(scope, geometry signature, quantized importance signature)`` —
  in the drift regime of Obs. 3 consecutive requests quantize equal, so
  a warm dispatcher answers in microseconds without touching a solver;
- cache misses are deduplicated by cache key and solved once per group,
  in submission order; groups whose solver rolls out in lockstep
  (:class:`RolloutSolver`) share one batched pass. With deterministic
  solvers this makes dispatcher output a pure function of the request
  trace (:meth:`AllocationResponse.identity`).

**Admission control / backpressure.** The ingest queue is bounded by
``ServeConfig.queue_depth``; when an arrival finds it full, the request
is shed immediately with a 429-style ``rejected`` response and counted
in ``repro_serve_rejections_total{reason="queue_full"}``. Under
sustained overload the queue depth and per-request latency therefore
stay bounded while the rejection counter grows — shed, don't drown.

Two drain modes:

- :meth:`Dispatcher.replay` — serve a trace as fast as possible, no
  pacing, nothing shed. This is the deterministic mode benches and the
  served-answer golden use.
- :meth:`Dispatcher.run` — honor arrival times against the wall clock
  (open-loop), applying admission control. This is what ``repro serve``
  / ``repro loadgen`` and the saturation bench exercise.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.rl.env import AllocationEnv, BatchedAllocationEnv
from repro.serve.kpis import KPITracker, kpi_table
from repro.serve.schemas import AllocationRequest, AllocationResponse, ServeConfig
from repro.tatim.cache import AllocationCache, array_signature
from repro.tatim.exact import branch_and_bound
from repro.tatim.greedy import best_fit_greedy, density_greedy, importance_greedy
from repro.tatim.problem import TATIMProblem
from repro.telemetry import span

#: Solver names a request may carry → callables. All are deterministic,
#: which is what the dispatcher's determinism contract rests on.
SOLVERS: dict[str, Callable] = {
    "density_greedy": density_greedy,
    "importance_greedy": importance_greedy,
    "best_fit_greedy": best_fit_greedy,
    "branch_and_bound": branch_and_bound,
}

#: Spin instead of sleeping when the next arrival is closer than this —
#: ``time.sleep`` granularity would otherwise dominate sub-millisecond
#: inter-arrival gaps.
_SPIN_THRESHOLD_S = 0.0005


class RolloutSolver:
    """:data:`SOLVERS`-compatible adapter over a DQN agent's greedy rollout.

    Registering an instance (``SOLVERS["crl_rollout"] =
    RolloutSolver(agent)``) lets requests name the learned policy like
    any greedy. Beyond the one-problem callable contract it exposes
    :meth:`solve_batch`, which the dispatcher uses to collapse a miss
    batch's rollouts into one lockstep pass over a
    :class:`~repro.rl.env.BatchedAllocationEnv` — allocations identical
    to per-request :meth:`__call__`, with one batched forward per step
    instead of one forward per episode per step.
    """

    def __init__(self, agent) -> None:
        self.agent = agent

    def __call__(self, problem):
        return self.agent.solve(AllocationEnv(problem))

    def solve_batch(self, problems) -> list:
        return self.agent.solve_greedy_batch(BatchedAllocationEnv(list(problems)))


@dataclass
class ServeReport:
    """Outcome of one dispatcher drain: responses + KPI summary."""

    config: ServeConfig
    responses: list[AllocationResponse]
    summary: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return float(self.summary.get("throughput_rps", 0.0))

    @property
    def rejected(self) -> int:
        return int(self.summary.get("rejected", 0))

    def identities(self) -> list[tuple]:
        """Timing-free response identities, in request-id order.

        Identical across runs of the same trace — the determinism
        contract's comparison key.
        """
        return [r.identity() for r in sorted(self.responses, key=lambda r: r.request_id)]

    def table(self) -> str:
        return kpi_table(self.summary)


class Dispatcher:
    """Load-balancing allocation service over a fixed TATIM geometry.

    Parameters
    ----------
    geometry:
        The recurring workload's task/processor instance; requests only
        supply the importance vector (its length must match).
    config:
        Queueing, traffic, and solver wiring (see :class:`ServeConfig`).
        ``config.solver`` must name an entry in the module-level
        :data:`SOLVERS` registry (extend it to add solvers — e.g. the
        saturation tests register a deliberately slow one).

    Every request is minted a ``trace_id`` (unless it already carries
    one) that is echoed in the response, stamped on the KPI exemplars,
    and set on the ``serve.request`` span each solve runs under.
    """

    #: Distinguishes trace ids minted by different dispatcher instances
    #: living in one process (e.g. test suites).
    _instances = itertools.count()

    def __init__(
        self,
        geometry: TATIMProblem,
        config: ServeConfig | None = None,
    ) -> None:
        self.geometry = geometry
        self.config = config if config is not None else ServeConfig()
        self.cache: AllocationCache | None = (
            AllocationCache() if self.config.cache else None
        )
        if self.config.solver not in SOLVERS:
            raise ConfigurationError(
                f"unknown solver {self.config.solver!r}; known: {sorted(SOLVERS)}"
            )
        #: Geometry digest baked into every cache key, so two dispatchers
        #: with different geometries can never alias entries.
        self._geometry_sig = (
            self.cache.problem_signature(geometry) if self.cache is not None else None
        )
        self._trace_prefix = f"d{next(self._instances)}"
        self._trace_counter = itertools.count()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc) -> None:
        """Nothing to release; the context form is kept for callers."""

    def _cache_key(self, request: AllocationRequest) -> tuple | None:
        if self.cache is None:
            return None
        scope = f"serve/{request.solver}"
        if request.environment is not None:
            scope = f"{scope}/{request.environment}"
        return (
            scope,
            self._geometry_sig,
            array_signature(request.importance, decimals=self.cache.decimals),
        )

    def _mint_ids(self, batch: Sequence[AllocationRequest]) -> list[str]:
        """One trace id per request: caller-supplied when present, else minted.

        Minted ids are unique per dispatcher instance and cheap (a
        counter, no UUID entropy on the hot path).
        """
        return [
            request.trace_id
            if request.trace_id is not None
            else f"{self._trace_prefix}-{next(self._trace_counter)}"
            for request in batch
        ]

    # ------------------------------------------------------------------
    def _serve_batch(
        self, batch: Sequence[AllocationRequest], ids: Sequence[str]
    ) -> list[tuple[dict[int, int], bool]]:
        """Answer a batch: cache hits first, then one solve per miss group.

        Misses are deduplicated by cache key (the drift regime makes
        whole batches quantize equal), solved in submission order, then
        inserted into the cache. Groups whose solver has ``solve_batch``
        share one lockstep rollout; every other group solves under a
        ``serve.request`` span carrying the lead request's trace id, so
        its ``serve.solve`` span is a child of the request it answers.
        """
        answers: list[tuple[dict[int, int], bool] | None] = [None] * len(batch)
        misses: "OrderedDict[object, list[int]]" = OrderedDict()
        keys: list[tuple | None] = []
        for index, request in enumerate(batch):
            key = self._cache_key(request)
            keys.append(key)
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    answers[index] = (cached, True)
                    continue
            # Dedup key: the cache key when caching, else the raw bytes of
            # the (solver, importance) pair — identical requests solve once.
            dedup = key if key is not None else (
                request.solver,
                request.importance.tobytes(),
            )
            misses.setdefault(dedup, []).append(index)

        def settle(indices: list[int], assignment: dict[int, int]) -> None:
            for index in indices:
                answers[index] = (assignment, False)
            if keys[indices[0]] is not None:
                self.cache.put(keys[indices[0]], assignment)

        rollout_groups: "OrderedDict[str, list[list[int]]]" = OrderedDict()
        solo_groups: list[list[int]] = []
        for indices in misses.values():
            if hasattr(SOLVERS[batch[indices[0]].solver], "solve_batch"):
                rollout_groups.setdefault(batch[indices[0]].solver, []).append(indices)
            else:
                solo_groups.append(indices)
        for name, groups in rollout_groups.items():
            with span("serve.rollout_batch", solver=name, episodes=len(groups)):
                allocations = SOLVERS[name].solve_batch(
                    [self._problem(batch[indices[0]]) for indices in groups]
                )
            for indices, allocation in zip(groups, allocations):
                settle(indices, allocation.as_assignment())
        for indices in solo_groups:
            lead = batch[indices[0]]
            with span(
                "serve.request",
                trace_id=ids[indices[0]],
                request_id=lead.request_id,
                solver=lead.solver,
                coalesced=len(indices),
            ), span("serve.solve", solver=lead.solver):
                allocation = SOLVERS[lead.solver](self._problem(lead))
            settle(indices, allocation.as_assignment())
        return answers  # type: ignore[return-value]

    def _problem(self, request: AllocationRequest) -> TATIMProblem:
        return self.geometry.scaled(importance=np.asarray(request.importance, dtype=float))

    def _respond(
        self,
        request: AllocationRequest,
        assignment: dict[int, int],
        cache_hit: bool,
        *,
        queue_delay_s: float,
        service_s: float,
        latency_s: float,
        trace_id: str | None = None,
    ) -> AllocationResponse:
        tasks = list(assignment)
        objective = float(request.importance[tasks].sum()) if tasks else 0.0
        return AllocationResponse(
            request_id=request.request_id,
            status="ok",
            assignment=assignment,
            objective=objective,
            solver=request.solver,
            cache_hit=cache_hit,
            queue_delay_s=max(queue_delay_s, 0.0),
            service_s=max(service_s, 0.0),
            latency_s=max(latency_s, 0.0),
            trace_id=trace_id,
        )

    def serve(self, request: AllocationRequest) -> AllocationResponse:
        """Answer one request synchronously (no queueing)."""
        started = time.perf_counter()
        (trace_id,) = self._mint_ids([request])
        ((assignment, cache_hit),) = self._serve_batch([request], [trace_id])
        elapsed = time.perf_counter() - started
        return self._respond(
            request,
            assignment,
            cache_hit,
            queue_delay_s=0.0,
            service_s=elapsed,
            latency_s=elapsed,
            trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    def replay(
        self,
        requests: Sequence[AllocationRequest],
        *,
        kpis: KPITracker | None = None,
        aggregator=None,
    ) -> ServeReport:
        """Drain a trace as fast as possible — deterministic, nothing shed.

        Latency here is pure service time (no pacing, so queue delay is
        meaningless); throughput is the service capacity of the current
        cache state, which is what the ``serve_sustained_load`` benches
        measure. A caller-supplied ``kpis`` tracker lets a live
        ``/kpis`` endpoint watch the drain; ``aggregator`` (a
        :class:`~repro.telemetry.TimeSeriesAggregator`) is ticked once
        per batch so windows close on schedule without per-event cost.
        """
        kpis = kpis if kpis is not None else KPITracker()
        responses: list[AllocationResponse] = []
        batch_max = self.config.batch_max
        started = time.perf_counter()
        with span("serve.replay", requests=len(requests)):
            for offset in range(0, len(requests), batch_max):
                batch = list(requests[offset : offset + batch_max])
                ids = self._mint_ids(batch)
                batch_started = time.perf_counter()
                answers = self._serve_batch(batch, ids)
                per_request_s = (time.perf_counter() - batch_started) / len(batch)
                for request, (assignment, cache_hit), trace_id in zip(
                    batch, answers, ids
                ):
                    response = self._respond(
                        request,
                        assignment,
                        cache_hit,
                        queue_delay_s=0.0,
                        service_s=per_request_s,
                        latency_s=per_request_s,
                        trace_id=trace_id,
                    )
                    responses.append(response)
                    kpis.record_ok(
                        latency_s=response.latency_s,
                        queue_delay_s=0.0,
                        service_s=response.service_s,
                        cache_hit=cache_hit,
                        trace_id=trace_id,
                    )
                if aggregator is not None:
                    aggregator.maybe_tick()
        elapsed = time.perf_counter() - started
        kpis.finish(elapsed)
        return ServeReport(
            config=self.config, responses=responses, summary=kpis.summary(elapsed)
        )

    def run(
        self,
        requests: Sequence[AllocationRequest],
        *,
        kpis: KPITracker | None = None,
        aggregator=None,
    ) -> ServeReport:
        """Open-loop paced drain with admission control.

        Arrival offsets are honored against the wall clock; an arrival
        that finds the queue at ``queue_depth`` is shed immediately with
        a ``rejected`` response. Per-request latency is measured from the
        *scheduled* arrival (open-loop convention: a slow server cannot
        slow the offered load down, so falling behind shows up as queue
        delay, not as a stretched schedule). ``kpis`` / ``aggregator``
        follow the same live-observability contract as :meth:`replay`
        (the aggregator is ticked once per loop iteration).
        """
        kpis = kpis if kpis is not None else KPITracker()
        responses: list[AllocationResponse] = []
        pending: deque[AllocationRequest] = deque()
        queue_depth = self.config.queue_depth
        batch_max = self.config.batch_max
        next_index = 0
        n = len(requests)
        started = time.perf_counter()
        with span("serve.run", requests=n):
            while next_index < n or pending:
                if aggregator is not None:
                    aggregator.maybe_tick()
                now = time.perf_counter() - started
                while next_index < n and requests[next_index].arrival_s <= now:
                    request = requests[next_index]
                    next_index += 1
                    if len(pending) >= queue_depth:
                        kpis.record_rejected(reason="queue_full")
                        responses.append(
                            AllocationResponse(
                                request_id=request.request_id,
                                status="rejected",
                                solver=request.solver,
                            )
                        )
                        continue
                    pending.append(request)
                kpis.observe_queue_depth(len(pending))
                if not pending:
                    if next_index < n:
                        gap = requests[next_index].arrival_s - (
                            time.perf_counter() - started
                        )
                        if gap > _SPIN_THRESHOLD_S:
                            time.sleep(min(gap, 0.002))
                    continue
                batch = [pending.popleft() for _ in range(min(batch_max, len(pending)))]
                ids = self._mint_ids(batch)
                batch_started = time.perf_counter() - started
                answers = self._serve_batch(batch, ids)
                batch_finished = time.perf_counter() - started
                service_s = (batch_finished - batch_started) / len(batch)
                for request, (assignment, cache_hit), trace_id in zip(
                    batch, answers, ids
                ):
                    response = self._respond(
                        request,
                        assignment,
                        cache_hit,
                        queue_delay_s=batch_started - request.arrival_s,
                        service_s=service_s,
                        latency_s=batch_finished - request.arrival_s,
                        trace_id=trace_id,
                    )
                    responses.append(response)
                    kpis.record_ok(
                        latency_s=response.latency_s,
                        queue_delay_s=response.queue_delay_s,
                        service_s=response.service_s,
                        cache_hit=cache_hit,
                        trace_id=trace_id,
                    )
        elapsed = time.perf_counter() - started
        kpis.finish(elapsed)
        return ServeReport(
            config=self.config, responses=responses, summary=kpis.summary(elapsed)
        )
