"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
repeats one timed operation through the public API in
:meth:`Workload.run_once`, checks every output, and, for the traced run,
times each layer in :meth:`Workload.trace`. The calls are the ones the
CLI makes for ``repro pipeline``, ``repro fig9``, ``repro loadgen`` and
``repro edgesim --fleet --shards``.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import checks
from tracer import Tracer, registry_total

#: Worker processes the load may use.
NPROC = max(1, min(2, os.cpu_count() or 1))


class Workload:
    """One named workload. Subclasses fill in the hooks below."""

    name = ""
    #: Seconds of the run kept back after the timed loop for :meth:`after_loop`.
    reserve_s = 0.0
    #: Count attempts in units of work (requests) rather than operations.
    counts_units = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first_output = None

    def setup(self) -> None:
        """Generate the inputs (counted in ``setup_s``)."""

    def run_once(self):
        """One timed operation: ``(wall_s, units of work, output)``."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Errors in one operation's output (empty when correct)."""
        raise NotImplementedError

    def after_loop(self) -> tuple[int, int, list[str]]:
        """Untimed extra phases: ``(attempted, failed, errors)``."""
        return 0, 0, []

    def report(self, walls: list[float], rates: list[float]) -> dict:
        """Workload-specific metrics ``{name: (value, unit)}`` for the human lines."""
        return {}

    def trace(self, tracer: Tracer) -> dict:
        """Untraced and traced passes; returns extra per-layer metrics."""
        raise NotImplementedError


def _close_tables(first: dict, other: dict, what: str, tolerance_s: float = 0.5) -> list[str]:
    """Two PT tables agree. Plan wall time enters PT, so allow a small slack."""
    if first.keys() != other.keys():
        return [f"{what}: policies differ {sorted(first)} vs {sorted(other)}"]
    for name in first:
        for a, b in zip(first[name], other[name]):
            if not (math.isclose(a, b, abs_tol=tolerance_s) or a == b):
                return [f"{what}: {name} PT {a!r} vs {b!r}"]
    return []


class Pipeline(Workload):
    """`repro pipeline --days 40 --n-buildings 3` at jobs=NPROC."""

    name = "pipeline"

    def setup(self) -> None:
        from repro import BuildingOperationConfig, DCTASystemConfig

        self.config = DCTASystemConfig(
            building=BuildingOperationConfig(n_days=40, n_buildings=3, seed=self.seed),
            crl_episodes=30,
            jobs=NPROC,
            seed=self.seed,
        )

    def run_once(self):
        from repro import AllocationCache, DCTASystem, use_allocation_cache

        # Drop the previous build first, so peak RSS does not depend on
        # how many builds fit in the run.
        self.system = None
        start = time.perf_counter()
        with use_allocation_cache(AllocationCache()):
            system = DCTASystem(self.config).build()
            results = {int(day): system.run_epoch(int(day)) for day in system.eval_days}
        wall = time.perf_counter() - start
        self.system = system
        return wall, len(results), results

    @staticmethod
    def _table(results: dict) -> dict:
        names = checks.POLICY_ORDER
        return {
            name: [results[day][name].processing_time for day in sorted(results)]
            for name in names
        }

    def check(self, results) -> list[str]:
        errors = checks.check_pipeline(results)
        if self.first_output is None:
            self.first_output = results
        else:
            errors += _close_tables(
                self._table(self.first_output), self._table(results), "pipeline rerun"
            )
        return errors

    def importance_share(self) -> float:
        """Σ true importance DCTA picks / Σ that density_greedy picks, over eval days.

        DCTA's pick is the head of its dispatch order, as long as the
        set density_greedy selects on the true importance.
        """
        from repro.allocation.base import tatim_from_workload
        from repro.tatim.greedy import density_greedy

        system = self.system
        captured = optimum = 0.0
        for day in system.eval_days:
            workload = system.workload_for_day(int(day))
            importance = [task.true_importance for task in workload]
            plan = system.allocators["DCTA"].plan(
                workload, system.nodes, system.context_for_day(int(day))
            )
            chosen = density_greedy(tatim_from_workload(workload, system.nodes)).assigned_tasks()
            picked = [task_id for task_id, _node in plan.assignments[: len(chosen)]]
            position = {task.task_id: i for i, task in enumerate(workload)}
            captured += sum(importance[position[task_id]] for task_id in picked)
            optimum += sum(importance[int(j)] for j in chosen)
        return captured / optimum

    def report(self, walls, rates) -> dict:
        mean_pt = {
            name: statistics.fmean(
                epoch[name].processing_time for epoch in self.first_output.values()
            )
            for name in ("DCTA", "CRL")
        }
        return {
            "pipeline_s": (statistics.median(walls), "s"),
            "dcta_pt_s": (mean_pt["DCTA"], "sim_s"),
            "dcta_over_crl_pt": (mean_pt["DCTA"] / mean_pt["CRL"], "ratio"),
            "dcta_importance_share": (self.importance_share(), "ratio"),
        }

    def trace(self, tracer: Tracer) -> dict:
        from repro.telemetry import MetricsRegistry, use_registry

        self.run_once()  # warm-up: first-build costs would otherwise land on one side
        untraced, _, results = self.run_once()
        registry = MetricsRegistry()
        with use_registry(registry), tracer.active():
            traced, _, traced_results = self.run_once()
        errors = checks.check_pipeline(results) + checks.check_pipeline(traced_results)
        return {
            "errors": errors,
            "trace.overhead_s": traced - untraced,
            "rl.rollouts": registry_total(registry, "repro_rl_crl_rollouts_total"),
            "parallel.adaptive_serial": registry_total(
                registry, "repro_pool_adaptive_serial_total"
            ),
            "parallel.workers": registry_total(registry, "repro_pool_workers"),
            "parallel.shm_bytes": tracer.shm_peak_bytes,
        }


class Fig9(Workload):
    """`repro fig9` defaults (50 tasks, 2..10 processors) at jobs=NPROC."""

    name = "fig9"
    POINTS = (2, 4, 6, 8, 10)

    def setup(self) -> None:
        from repro import ScenarioConfig, SyntheticScenario

        self.scenario = SyntheticScenario(
            ScenarioConfig(
                n_tasks=50,
                n_regimes=4,
                n_history=32,
                n_eval=4,
                fluctuation_sigma=0.7,
                seed=self.seed,
            )
        )

    def sweep(self, jobs: int):
        from repro import AllocationCache, PTExperiment, use_allocation_cache

        start = time.perf_counter()
        with use_allocation_cache(AllocationCache()):
            result = PTExperiment(
                self.scenario, crl_episodes=50, jobs=jobs, seed=self.seed
            ).sweep_processors(self.POINTS)
        return time.perf_counter() - start, result.times

    def run_once(self):
        wall, times = self.sweep(NPROC)
        epochs = len(self.POINTS) * len(self.scenario.eval_epochs) * len(times)
        return wall, epochs, times

    def check(self, times) -> list[str]:
        errors = checks.check_sweep(times, self.POINTS)
        if self.first_output is None:
            self.first_output = times
        else:
            errors += _close_tables(self.first_output, times, "fig9 rerun")
        return errors

    def report(self, walls, rates) -> dict:
        dcta = self.first_output["DCTA"]
        return {
            "fig9_s": (statistics.median(walls), "s"),
            "dcta_pt_s": (sum(dcta) / len(dcta), "sim_s"),
        }

    def trace(self, tracer: Tracer) -> dict:
        from repro.telemetry import MetricsRegistry, use_registry

        fanout_registry = MetricsRegistry()
        fanout_tracer = Tracer()
        with use_registry(fanout_registry), fanout_tracer.active():
            _, fanout = self.sweep(NPROC)
            workers = registry_total(fanout_registry, "repro_pool_workers")
        untraced, serial = self.sweep(1)
        registry = MetricsRegistry()
        with use_registry(registry), tracer.active():
            traced, traced_times = self.sweep(1)
        errors = checks.check_sweep(fanout, self.POINTS)
        errors += _close_tables(fanout, serial, f"fig9 jobs={NPROC} vs jobs=1")
        errors += _close_tables(serial, traced_times, "fig9 traced vs untraced")
        return {
            "errors": errors,
            "trace.overhead_s": traced - untraced,
            "rl.rollouts": registry_total(registry, "repro_rl_crl_rollouts_total"),
            "parallel.adaptive_serial": registry_total(
                fanout_registry, "repro_pool_adaptive_serial_total"
            ),
            "parallel.workers": workers,
            "parallel.shm_bytes": fanout_tracer.shm_peak_bytes,
        }


class Serve(Workload):
    """Open-loop serving of density_greedy allocations with regime redraws."""

    name = "serve"
    NOMINAL_HZ = 4000.0
    NOMINAL_S = 2.0
    LADDER_HZ = (2000.0, 8000.0, 16000.0)
    RUNG_S = 1.0
    #: The timed replay drains this many traces, each on its own geometry
    #: from a seed derived from the workload seed, so that no single
    #: geometry's solve cost sets the run's figure.
    REPLAY_TRACES = 8
    REPLAY_S = 0.5
    #: Latency limit of the capacity ladder (the stock p99 SLO).
    P99_LIMIT_MS = 250.0
    #: The paced runs plus generating their traces (~2 s).
    reserve_s = NOMINAL_S + len(LADDER_HZ) * RUNG_S + 4.0
    counts_units = True

    def config(self, rate_hz: float, duration_s: float, seed: int | None = None):
        from repro import ServeConfig

        return ServeConfig(
            arrival_rate_hz=rate_hz,
            duration_s=duration_s,
            redraw_every=20,
            solver="density_greedy",
            jobs=1,
            seed=self.seed if seed is None else seed,
        )

    def setup(self) -> None:
        import numpy as np
        from repro import generate_trace

        self.traces = []
        for seed in np.random.SeedSequence(self.seed).generate_state(self.REPLAY_TRACES):
            config = self.config(self.NOMINAL_HZ, self.REPLAY_S, int(seed))
            self.traces.append((config, *generate_trace(config)))

    def rung(self, rate_hz: float):
        """``(config, geometry, requests)`` of one paced run at ``rate_hz``."""
        from repro import generate_trace

        duration_s = self.NOMINAL_S if rate_hz == self.NOMINAL_HZ else self.RUNG_S
        config = self.config(rate_hz, duration_s)
        return (config, *generate_trace(config))

    def replay(self):
        """Drain every replay trace from a cold cache: ``(wall_s, responses per trace)``."""
        from repro import Dispatcher

        wall, answers = 0.0, []
        for config, geometry, requests in self.traces:
            with Dispatcher(geometry, config) as dispatcher:
                start = time.perf_counter()
                report = dispatcher.replay(requests)
                wall += time.perf_counter() - start
            answers.append(report.responses)
        return wall, answers

    def paced(self, rung):
        from repro import Dispatcher

        config, geometry, requests = rung
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.run(requests)
        return report

    def run_once(self):
        wall, answers = self.replay()
        return wall, sum(map(len, answers)), answers

    def check(self, answers) -> list[str]:
        identities = [[r.identity() for r in responses] for responses in answers]
        if self.first_output is None:
            self.first_output = identities
            errors = []
            for (_config, geometry, requests), responses in zip(self.traces, answers):
                errors += checks.check_serve(geometry, requests, responses)
            return errors
        if identities != self.first_output:
            return ["replay answers differ between runs of one seed"]
        return []

    @staticmethod
    def latencies_ms(report) -> list[float]:
        """Latency per request sent; a rejected request counts as infinite."""
        return [r.latency_s * 1e3 if r.status == "ok" else math.inf for r in report.responses]

    def after_loop(self):
        import numpy as np

        # Paced traces are made one at a time, after the replay inputs are
        # dropped: objects the benchmark keeps alive would lengthen the
        # program's own gen-2 collections, and so the stalls it is timed on.
        self.traces = self.first_output = None
        self.rung_outcomes = []
        attempted = failed = 0
        errors: list[str] = []
        for rate in sorted((*self.LADDER_HZ, self.NOMINAL_HZ)):
            config, geometry, requests = rung = self.rung(rate)
            report = self.paced(rung)
            rung_errors = checks.check_serve(geometry, requests, report.responses)
            latency = np.asarray(self.latencies_ms(report))
            p99 = float(np.percentile(latency, 99))
            drained = report.summary["elapsed_s"] <= config.duration_s + self.P99_LIMIT_MS / 1e3
            meets = p99 <= self.P99_LIMIT_MS and report.rejected == 0 and drained
            self.rung_outcomes.append((config.arrival_rate_hz, meets))
            if rate == self.NOMINAL_HZ:
                self.nominal_latency = latency
                attempted += len(requests)
                failed += min(len(requests), report.rejected + len(rung_errors))
            errors += rung_errors
            del rung, geometry, requests, report
        return attempted, failed, errors

    def report(self, walls, rates) -> dict:
        import numpy as np

        passing = [rate for rate, meets in self.rung_outcomes if meets]
        return {
            "serve_p50_ms": (float(np.percentile(self.nominal_latency, 50)), "ms"),
            "serve_p99_ms": (float(np.percentile(self.nominal_latency, 99)), "ms"),
            "serve_max_rps": (max(passing) if passing else 0.0, "req/s"),
        }

    def trace(self, tracer: Tracer) -> dict:
        import numpy as np

        self.replay()  # warm-up, as in Pipeline.trace
        untraced, _ = self.replay()
        replay_tracer = Tracer()
        with replay_tracer.active():
            traced, _ = self.replay()
        nominal = self.rung(self.NOMINAL_HZ)
        with tracer.active():
            report = self.paced(nominal)
        _config, geometry, requests = nominal
        ok = [r for r in report.responses if r.status == "ok"]
        queue_ms = np.asarray([r.queue_delay_s for r in ok] or [0.0]) * 1e3
        service_ms = np.asarray([r.service_s for r in ok] or [0.0]) * 1e3
        _, calls = tracer.self_times()
        return {
            "errors": checks.check_serve(geometry, requests, report.responses),
            "trace.overhead_s": traced - untraced,
            "serve.queue_wait_p50_ms": float(np.percentile(queue_ms, 50)),
            "serve.queue_wait_p99_ms": float(np.percentile(queue_ms, 99)),
            "serve.service_p50_ms": float(np.percentile(service_ms, 50)),
            "serve.service_p99_ms": float(np.percentile(service_ms, 99)),
            "serve.solves_per_request": calls.get("tatim.solve", 0) / len(requests),
            "serve.max_queue_depth": report.summary["max_queue_depth"],
            "serve.rejected": report.rejected,
        }


class Fleet(Workload):
    """A 100k-node fleet through `run_fleet_sharded` at shards=NPROC."""

    name = "fleet"

    def setup(self) -> None:
        from repro.edgesim.fleet import FleetConfig

        # 3000 tasks/s over 800 regions keeps the defaults' per-region load
        # (30 tasks/s over 8 regions): ~60% access-radio utilization.
        self.config = FleetConfig(
            n_nodes=100_000,
            n_regions=800,
            duration_s=150.0,
            arrival_rate_hz=3000.0,
            sampler="gauss_poisson",
            churn_rate_hz=10.0,
            seed=self.seed,
        )

    def run(self, shards: int):
        from repro.edgesim.shard import run_fleet_sharded

        start = time.perf_counter()
        run = run_fleet_sharded(self.config, shards=shards, force=shards > 1)
        return time.perf_counter() - start, run

    def run_once(self):
        wall, run = self.run(NPROC)
        return wall, run.result.completed, run

    @staticmethod
    def digest(run) -> str:
        from repro.edgesim.shard import result_digest

        return result_digest(run.result)

    def check(self, run) -> list[str]:
        errors = checks.check_fleet(run.result)
        if self.first_output is None:
            self.first_output = self.digest(run)
        return errors + checks.check_same([self.first_output, self.digest(run)], "digest")

    def report(self, walls, rates) -> dict:
        return {"fleet_tasks_per_s": (statistics.median(rates), "tasks/s")}

    def trace(self, tracer: Tracer) -> dict:
        from repro.telemetry import MetricsRegistry, use_registry

        fanout_registry = MetricsRegistry()
        fanout_tracer = Tracer()
        with use_registry(fanout_registry), fanout_tracer.active():
            _, fanout = self.run(NPROC)
            workers = registry_total(fanout_registry, "repro_pool_workers")
        untraced, serial = self.run(1)
        with tracer.active(), tracer.span("edgesim.fleet"):
            traced, run = self.run(1)
        digests = [self.digest(fanout), self.digest(serial), self.digest(run)]
        result = run.result
        return {
            "errors": checks.check_fleet(result) + checks.check_same(digests, "digest"),
            "trace.overhead_s": traced - untraced,
            "edgesim.events": result.events,
            "edgesim.peak_in_flight": result.peak_in_flight,
            "edgesim.barrier_crossings": run.barrier_crossings,
            "parallel.adaptive_serial": registry_total(
                fanout_registry, "repro_pool_adaptive_serial_total"
            ),
            "parallel.workers": workers,
            "parallel.shm_bytes": fanout_tracer.shm_peak_bytes,
        }


WORKLOADS = {cls.name: cls for cls in (Pipeline, Fig9, Serve, Fleet)}
