"""Processing-time experiment runner for the Figs. 9-11 sweeps.

:func:`build_allocators` assembles the paper's four policies (plus the
oracle) over a scenario: it trains CRL on the scenario's environment
store and the local SVM process on its history epochs, labels coming from
the optimal (density-greedy on true importance) TATIM selection of each
historical day. :class:`PTExperiment` then sweeps processors / input size /
bandwidth, averaging processing time over the evaluation epochs.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.allocation.base import Allocator, EpochContext, tatim_from_workload
from repro.allocation.crl_policy import CRLAllocator
from repro.allocation.dcta import DCTAAllocator
from repro.allocation.dml import DMLAllocator
from repro.allocation.local import LocalProcess
from repro.allocation.oracle import OracleAllocator
from repro.allocation.random_mapping import RandomMapping
from repro.core.scenario import Epoch, ScenarioConfig, SyntheticScenario
from repro.edgesim.node import EdgeNode
from repro.edgesim.network import StarNetwork
from repro.edgesim.simulator import EdgeSimulator
from repro.edgesim.testbed import scaled_testbed
from repro.errors import DataError
from repro.rl.crl import CRLModel
from repro.rl.dqn import DQNConfig
from repro.tatim.cache import AllocationCache, get_allocation_cache, use_allocation_cache
from repro.tatim.greedy import density_greedy
from repro.telemetry import get_registry, span
from repro.utils.reporting import format_table, speedup_table


@dataclass(frozen=True)
class EpochOutcome:
    """One (method, epoch) simulation outcome."""

    method: str
    day: int
    processing_time: float
    tasks_executed: int


@dataclass(frozen=True)
class SweepResult:
    """Results of one sweep: mean PT per method per sweep value.

    ``plan_seconds`` and ``solve_counts`` are the per-method telemetry
    columns: controller-side wall-clock spent computing plans and the
    number of plans solved at each sweep point (the Sec. V allocation-time
    vs training-time breakdown at sweep granularity). Both are empty for
    results built by older callers.
    """

    sweep_name: str
    sweep_values: tuple
    times: dict[str, list[float]]
    outcomes: list[EpochOutcome] = field(default_factory=list, repr=False)
    plan_seconds: dict[str, list[float]] = field(default_factory=dict, repr=False)
    solve_counts: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def speedup_over(self, method: str, *, reference: str = "DCTA") -> np.ndarray:
        """Per-sweep-point PT ratio method/reference."""
        if method not in self.times or reference not in self.times:
            raise DataError(f"unknown method; have {sorted(self.times)}")
        return np.asarray(self.times[method]) / np.asarray(self.times[reference])

    def mean_speedup(self, method: str, *, reference: str = "DCTA") -> float:
        return float(self.speedup_over(method, reference=reference).mean())

    def table(self, *, reference: str = "DCTA") -> str:
        """The figure's data as a printable table (PT + speedups)."""
        return speedup_table(self.sweep_name, list(self.sweep_values), self.times, reference=reference)

    def timing_table(self) -> str:
        """Per-method plan wall-time (ms) and solve counts per sweep point."""
        if not self.plan_seconds:
            return "(no plan-timing telemetry recorded)"
        methods = list(self.plan_seconds)
        headers = [self.sweep_name]
        for method in methods:
            headers += [f"{method} plan (ms)", f"{method} solves"]
        rows = []
        for i, value in enumerate(self.sweep_values):
            row: list[object] = [value]
            for method in methods:
                row += [
                    self.plan_seconds[method][i] * 1e3,
                    self.solve_counts[method][i],
                ]
            rows.append(row)
        return format_table(headers, rows, title="allocation cost per sweep point")


def optimal_selection_labels(
    scenario: SyntheticScenario, epoch: Epoch, nodes: Sequence[EdgeNode]
) -> np.ndarray:
    """0/1 per-task vector: membership in the epoch's optimal TATIM allocation.

    "Optimal" here is the density-greedy solution on *true* importance —
    the label source for the local process's "Past Success"-style training
    (exact search over 50 tasks per epoch would be intractable and the
    greedy is within a few percent on long-tail instances).
    """
    workload = scenario.workload_for(epoch)
    problem = tatim_from_workload(workload, nodes)
    allocation = density_greedy(problem)
    labels = np.zeros(len(workload), dtype=int)
    labels[allocation.assigned_tasks()] = 1
    return labels


def build_allocators(
    scenario: SyntheticScenario,
    nodes: Sequence[EdgeNode],
    *,
    crl_episodes: int = 60,
    crl_clusters: int = 4,
    dqn_hidden: tuple[int, ...] = (64, 32),
    weights: tuple[float, float] = (0.5, 0.5),
    include_oracle: bool = False,
    jobs: int = 1,
    seed: int = 0,
) -> dict[str, Allocator]:
    """Train and assemble the RM / DML / CRL / DCTA policy set.

    The CRL geometry is bound to ``nodes``; rebuild when the node set
    changes (the Fig. 9 sweep does this per point). ``jobs > 1`` fans
    per-cluster CRL training out over worker processes.
    """
    geometry = tatim_from_workload(scenario.tasks, nodes)
    crl_model = CRLModel(
        geometry,
        n_clusters=crl_clusters,
        episodes=crl_episodes,
        dqn_config=DQNConfig(hidden_sizes=dqn_hidden),
        jobs=jobs,
        seed=seed,
    )
    crl_model.fit(scenario.environment_store())

    local = LocalProcess()
    train_features = [epoch.features for epoch in scenario.history_epochs]
    train_labels = [
        optimal_selection_labels(scenario, epoch, nodes) for epoch in scenario.history_epochs
    ]
    local.fit(train_features, train_labels)

    allocators: dict[str, Allocator] = {
        "RM": RandomMapping(seed=seed),
        "DML": DMLAllocator(),
        "CRL": CRLAllocator(crl_model),
        "DCTA": DCTAAllocator(crl_model, local, w1=weights[0], w2=weights[1]),
    }
    if include_oracle:
        allocators["Oracle"] = OracleAllocator(time_limit_s=geometry.time_limit)
    return allocators


#: Rough serial cost of one Fig. 9 sweep point (allocator rebuild + eval
#: epochs on the reference bench machine); feeds the pool's fan-out decision.
EST_SWEEP_POINT_S = 0.4


@dataclass(frozen=True)
class _ProcessorPoint:
    """Picklable payload: one Fig. 9 sweep point (allocator rebuild + eval).

    ``scenario`` is usually a :class:`~repro.parallel.shm.SharedBlobRef`
    so the scenario (environment store included) is pickled once into
    shared memory rather than once per point.
    """

    scenario: object
    count: int
    quality_threshold: float
    crl_episodes: int
    seed: int


def _run_processor_point(point: _ProcessorPoint) -> dict:
    """Rebuild allocators for ``count`` processors and evaluate (worker fn).

    Allocators are built with ``jobs=1`` — the point itself is the unit of
    parallelism, and the pool's fork-guard would serialise any nested
    fan-out anyway.
    """
    from repro.parallel import resolve_shared

    scenario = resolve_shared(point.scenario)
    experiment = PTExperiment(
        scenario,
        quality_threshold=point.quality_threshold,
        crl_episodes=point.crl_episodes,
        jobs=1,
        seed=point.seed,
    )
    nodes, network = scaled_testbed(point.count)
    allocators = build_allocators(
        scenario,
        nodes,
        crl_episodes=point.crl_episodes,
        jobs=1,
        seed=point.seed,
    )
    means = experiment._run_point(nodes, network, allocators)
    return {
        "means": means,
        "plan_seconds": experiment._last_plan_seconds,
        "solve_counts": experiment._last_solve_counts,
    }


class PTExperiment:
    """Sweeps processing time across the paper's three figure axes."""

    def __init__(
        self,
        scenario: SyntheticScenario,
        *,
        quality_threshold: float = 0.9,
        crl_episodes: int = 60,
        jobs: int = 1,
        seed: int = 0,
    ) -> None:
        self.scenario = scenario
        self.quality_threshold = quality_threshold
        self.crl_episodes = crl_episodes
        self.jobs = int(jobs)
        self.seed = seed

    # ------------------------------------------------------------------
    def _run_point(
        self,
        nodes: Sequence[EdgeNode],
        network: StarNetwork,
        allocators: Mapping[str, Allocator],
        *,
        workload_transform: Callable | None = None,
    ) -> dict[str, float]:
        simulator = EdgeSimulator(nodes, network, quality_threshold=self.quality_threshold)
        registry = get_registry()
        sums: dict[str, float] = {name: 0.0 for name in allocators}
        plan_seconds: dict[str, float] = {name: 0.0 for name in allocators}
        solve_counts: dict[str, int] = {name: 0 for name in allocators}
        outcomes: list[EpochOutcome] = []
        # Batched rollout prefetch: every CRL-backed policy will ask the
        # model for each eval epoch's allocation one sensing vector at a
        # time, so warm an allocation cache once via allocate_batch — the
        # per-cluster DQN rollouts for all epochs run as lockstep batched
        # episodes and the per-epoch plan() calls below become cache hits.
        # Scores are identical either way (rollouts are deterministic), so
        # PT columns are unchanged; only controller wall-clock moves.
        models: dict[int, CRLModel] = {}
        for allocator in allocators.values():
            model = getattr(allocator, "crl_model", getattr(allocator, "model", None))
            if isinstance(model, CRLModel) and model.store is not None:
                models.setdefault(id(model), model)
        sensing_rows = [
            epoch.sensing for epoch in self.scenario.eval_epochs if epoch.sensing is not None
        ]
        with ExitStack() as stack:
            if models and len(sensing_rows) > 1:
                if get_allocation_cache() is None:
                    stack.enter_context(use_allocation_cache(AllocationCache()))
                for model in models.values():
                    prefetch_started = time.perf_counter()
                    with span("core.prefetch", epochs=len(sensing_rows)):
                        model.allocate_batch(sensing_rows)
                    registry.histogram(
                        "repro_core_prefetch_seconds",
                        help="Batched CRL rollout prefetch latency per sweep point",
                    ).observe(time.perf_counter() - prefetch_started)
            for epoch in self.scenario.eval_epochs:
                workload = self.scenario.workload_for(epoch)
                if workload_transform is not None:
                    workload = workload_transform(workload)
                context = EpochContext(sensing=epoch.sensing, features=epoch.features, day=epoch.day)
                for name, allocator in allocators.items():
                    with span("core.plan", policy=name, day=epoch.day):
                        started = time.perf_counter()
                        plan = allocator.plan(workload, nodes, context)
                        elapsed = time.perf_counter() - started
                    plan_seconds[name] += elapsed
                    solve_counts[name] += 1
                    registry.counter(
                        "repro_core_plans_total",
                        help="Allocation plans computed during PT sweeps",
                        policy=name,
                    ).inc()
                    registry.histogram(
                        "repro_core_plan_seconds",
                        help="Controller-side plan computation latency",
                        policy=name,
                    ).observe(elapsed)
                    result = simulator.run(workload, plan)
                    sums[name] += result.processing_time
                    outcomes.append(
                        EpochOutcome(name, epoch.day, result.processing_time, result.tasks_executed)
                    )
        n = len(self.scenario.eval_epochs)
        self._last_outcomes = outcomes
        self._last_plan_seconds = plan_seconds
        self._last_solve_counts = solve_counts
        return {name: total / n for name, total in sums.items()}

    # ------------------------------------------------------------------
    def _append_point(
        self,
        point: dict[str, float],
        times: dict[str, list[float]],
        plan_seconds: dict[str, list[float]],
        solve_counts: dict[str, list[int]],
    ) -> None:
        """Fold one sweep point's means + plan telemetry into the columns."""
        for name, value in point.items():
            times.setdefault(name, []).append(value)
            plan_seconds.setdefault(name, []).append(self._last_plan_seconds[name])
            solve_counts.setdefault(name, []).append(self._last_solve_counts[name])

    def sweep_processors(self, processor_counts: Sequence[int] = (2, 4, 6, 8, 10)) -> SweepResult:
        """Fig. 9: PT vs number of processors.

        This is the one sweep that rebuilds the whole policy set per point
        (CRL geometry is bound to the node set), so with ``jobs > 1`` the
        points themselves fan out over the worker pool: the scenario is
        published to shared memory once, each worker rebuilds and
        evaluates its point with ``jobs=1`` internally, and columns are
        reassembled in point order. CRL training and the simulator are
        seed-deterministic, so PT columns are identical for any ``jobs``.
        """
        times: dict[str, list[float]] = {}
        plan_seconds: dict[str, list[float]] = {}
        solve_counts: dict[str, list[int]] = {}
        jobs = self.jobs
        if jobs > 1 and len(processor_counts) > 1:
            # Skip the share/shard machinery when the pool would degrade
            # the run to serial anyway (single core, small sweeps).
            from repro.parallel import get_worker_pool

            jobs = get_worker_pool().effective_jobs(
                jobs,
                len(processor_counts),
                estimated_cost_s=EST_SWEEP_POINT_S * len(processor_counts),
            )
        with span("core.sweep", axis="processors", points=len(processor_counts)):
            if jobs > 1 and len(processor_counts) > 1:
                from repro.parallel import ParallelTrainer, get_shared_store

                shared = get_shared_store()
                key = f"sweep.scenario:{id(self.scenario)}"
                scenario_ref = shared.share(key, self.scenario)
                points = [
                    _ProcessorPoint(
                        scenario=scenario_ref,
                        count=int(count),
                        quality_threshold=self.quality_threshold,
                        crl_episodes=self.crl_episodes,
                        seed=self.seed,
                    )
                    for count in processor_counts
                ]
                trainer = ParallelTrainer(
                    _run_processor_point,
                    jobs=jobs,
                    label="sweep.processors",
                    estimated_cost_s=EST_SWEEP_POINT_S * len(points),
                )
                try:
                    results = trainer.map(points)
                finally:
                    shared.release(key)
                for result in results:
                    self._last_plan_seconds = result["plan_seconds"]
                    self._last_solve_counts = result["solve_counts"]
                    self._append_point(result["means"], times, plan_seconds, solve_counts)
            else:
                for count in processor_counts:
                    nodes, network = scaled_testbed(count)
                    allocators = build_allocators(
                        self.scenario,
                        nodes,
                        crl_episodes=self.crl_episodes,
                        jobs=self.jobs,
                        seed=self.seed,
                    )
                    point = self._run_point(nodes, network, allocators)
                    self._append_point(point, times, plan_seconds, solve_counts)
        return SweepResult(
            "processors",
            tuple(processor_counts),
            times,
            plan_seconds=plan_seconds,
            solve_counts=solve_counts,
        )

    def sweep_input_size(
        self,
        mean_sizes_mb: Sequence[float] = (200, 400, 600, 800, 1000),
        *,
        n_processors: int = 10,
    ) -> SweepResult:
        """Fig. 10: PT vs average input data size (Mb)."""
        nodes, network = scaled_testbed(n_processors)
        allocators = build_allocators(
            self.scenario, nodes, crl_episodes=self.crl_episodes, jobs=self.jobs, seed=self.seed
        )
        base_mean = float(np.mean([task.input_mb for task in self.scenario.tasks]))
        times: dict[str, list[float]] = {}
        plan_seconds: dict[str, list[float]] = {}
        solve_counts: dict[str, list[int]] = {}
        with span("core.sweep", axis="input_size_mb", points=len(mean_sizes_mb)):
            for mean_size in mean_sizes_mb:
                scale = mean_size / base_mean

                def rescale(workload, scale=scale):
                    return [replace(task, input_mb=task.input_mb * scale) for task in workload]

                point = self._run_point(nodes, network, allocators, workload_transform=rescale)
                self._append_point(point, times, plan_seconds, solve_counts)
        return SweepResult(
            "input_size_mb",
            tuple(mean_sizes_mb),
            times,
            plan_seconds=plan_seconds,
            solve_counts=solve_counts,
        )

    def sweep_bandwidth(
        self,
        bandwidths_mbps: Sequence[float] = (10, 20, 40, 80, 120),
        *,
        n_processors: int = 10,
    ) -> SweepResult:
        """Fig. 11: PT vs network bandwidth (Mbps)."""
        nodes, _ = scaled_testbed(n_processors)
        allocators = build_allocators(
            self.scenario, nodes, crl_episodes=self.crl_episodes, jobs=self.jobs, seed=self.seed
        )
        times: dict[str, list[float]] = {}
        plan_seconds: dict[str, list[float]] = {}
        solve_counts: dict[str, list[int]] = {}
        with span("core.sweep", axis="bandwidth_mbps", points=len(bandwidths_mbps)):
            for bandwidth in bandwidths_mbps:
                _, network = scaled_testbed(n_processors, bandwidth_mbps=bandwidth)
                point = self._run_point(nodes, network, allocators)
                self._append_point(point, times, plan_seconds, solve_counts)
        return SweepResult(
            "bandwidth_mbps",
            tuple(bandwidths_mbps),
            times,
            plan_seconds=plan_seconds,
            solve_counts=solve_counts,
        )


# ----------------------------------------------------------------------
# Multi-seed fan-out: Fig. 9-style sweeps repeated across scenario seeds
# are embarrassingly parallel (one independent scenario + policy set per
# seed), so they ride the same ParallelTrainer as per-cluster CRL fits.


@dataclass(frozen=True)
class SweepSpec:
    """Picklable description of one seed's sweep for the process pool."""

    scenario_config: ScenarioConfig
    seed: int
    axis: str = "processors"
    points: tuple = (2, 4, 6, 8, 10)
    crl_episodes: int = 60
    quality_threshold: float = 0.9


def run_sweep_spec(spec: SweepSpec) -> SweepResult:
    """Build the seed's scenario + experiment and run one sweep (worker fn)."""
    scenario = SyntheticScenario(replace(spec.scenario_config, seed=spec.seed))
    experiment = PTExperiment(
        scenario,
        quality_threshold=spec.quality_threshold,
        crl_episodes=spec.crl_episodes,
        seed=spec.seed,
    )
    if spec.axis == "processors":
        return experiment.sweep_processors(spec.points)
    if spec.axis == "input_size_mb":
        return experiment.sweep_input_size(spec.points)
    if spec.axis == "bandwidth_mbps":
        return experiment.sweep_bandwidth(spec.points)
    raise DataError(f"unknown sweep axis {spec.axis!r}")


def run_multiseed(
    scenario_config: ScenarioConfig,
    seeds: Sequence[int],
    *,
    axis: str = "processors",
    points: Sequence | None = None,
    crl_episodes: int = 60,
    quality_threshold: float = 0.9,
    jobs: int = 1,
) -> list[SweepResult]:
    """One full sweep per seed, fanned out over ``jobs`` processes.

    Each seed is an independent draw of the scenario (regimes, workloads,
    CRL training), so the fan-out changes nothing but wall-clock; results
    come back in seed order and feed straight into
    :func:`repro.core.statistics.aggregate_sweeps`.
    """
    from repro.parallel import ParallelTrainer

    if points is None:
        points = {
            "processors": (2, 4, 6, 8, 10),
            "input_size_mb": (200, 400, 600, 800, 1000),
            "bandwidth_mbps": (10, 20, 40, 80, 120),
        }.get(axis)
    if points is None:
        raise DataError(f"unknown sweep axis {axis!r}")
    specs = [
        SweepSpec(
            scenario_config=scenario_config,
            seed=int(seed),
            axis=axis,
            points=tuple(points),
            crl_episodes=crl_episodes,
            quality_threshold=quality_threshold,
        )
        for seed in seeds
    ]
    trainer = ParallelTrainer(
        run_sweep_spec,
        jobs=jobs,
        label="multiseed",
        estimated_cost_s=EST_SWEEP_POINT_S * len(points) * len(specs),
    )
    return trainer.map(specs)
