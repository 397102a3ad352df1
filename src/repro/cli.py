"""Command-line interface: run the paper's experiments from the shell.

Usage::

    python -m repro fig9  [--tasks 50 --episodes 50 --seed 0]
    python -m repro fig10 [--sizes 200 400 600 800 1000]
    python -m repro fig11 [--bandwidths 10 20 40 80 120]
    python -m repro longtail [--days 60]
    python -m repro pipeline [--days 30]
    python -m repro bench    [--jobs 4 --check --threshold 1.25]
    python -m repro serve    [--arrival-rate 500 --duration-s 2 --queue-depth 512]
    python -m repro loadgen  [--arrival-rate 2000 --duration-s 2]
    python -m repro top      [--endpoint http://127.0.0.1:9109 | --file timeseries.jsonl]

Each subcommand prints the corresponding figure's table; `pipeline` runs
the full building-data DCTA system once; `bench` runs the tracked
performance benchmarks and writes their results to ``BENCH_perf.json``
(``--check`` additionally compares against a same-machine baseline and
exits non-zero on regression); `serve` runs the allocation service
against a generated open-loop traffic trace and prints its KPI table;
`loadgen` drives sustained load at a target rate and reports
p50/p95/p99 latency + throughput (see ``docs/serving.md``). The serve
flags mirror ``repro.serve.ServeConfig`` field names and their defaults
are shown in ``--help``.

Experiment subcommands accept ``--no-cache`` (disable the allocation
cache); ``fig9`` also takes ``--jobs N``, the worker processes its
sweep points fan out over. See ``docs/performance.md``.

Every experiment subcommand also accepts the telemetry flags::

    --metrics-out metrics.json   # JSON snapshot of all repro_* metrics
    --metrics-prom metrics.prom  # Prometheus text exposition
    --trace-out trace.jsonl      # nested span trace of the run
    --log-level debug            # structured key=value logs to stderr

and ``telemetry-report`` renders saved metrics/trace files back into
tables and a flame summary.

``serve`` and ``loadgen`` additionally take live-observability flags:
``--metrics-port`` starts the HTTP sidecar (``/metrics`` ``/healthz``
``/kpis`` ``/timeseries``), ``--window-s``/``--timeseries-out`` control
the tumbling-window telemetry ring, and ``--slo`` declares burn-rate
objectives (``p99_ms=N``, ``rejection_pct=N``) reported after the run
and on ``/healthz``. ``repro top`` renders the window table from a live
endpoint or a saved timeseries file. See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.core.experiment import PTExperiment
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.telemetry import (
    MetricsRegistry,
    RunTrace,
    configure_logging,
    get_logger,
    kv,
    to_prometheus,
    use_registry,
    use_run_trace,
    write_metrics_json,
)


def _make_experiment(args: argparse.Namespace) -> PTExperiment:
    scenario = SyntheticScenario(
        ScenarioConfig(
            n_tasks=args.tasks,
            n_regimes=4,
            n_history=args.history,
            n_eval=args.eval_epochs,
            fluctuation_sigma=0.7,
            seed=args.seed,
        )
    )
    return PTExperiment(
        scenario,
        crl_episodes=args.episodes,
        jobs=getattr(args, "jobs", 1),
        seed=args.seed,
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tasks", type=int, default=50, help="tasks per epoch")
    parser.add_argument("--episodes", type=int, default=50, help="DQN episodes per cluster")
    parser.add_argument("--history", type=int, default=32, help="history epochs")
    parser.add_argument("--eval-epochs", type=int, default=4, dest="eval_epochs")
    parser.add_argument("--seed", type=int, default=0)
    _add_cache_argument(parser.add_argument_group("performance"))


def _add_cache_argument(group) -> None:
    group.add_argument(
        "--no-cache",
        action="store_false",
        dest="cache",
        default=True,
        help="disable the allocation cache (on by default; see docs/performance.md)",
    )


def _serve_parent_parser() -> argparse.ArgumentParser:
    """Shared flags for ``serve`` and ``loadgen``.

    Flag names mirror :class:`repro.serve.ServeConfig` field names
    (``--arrival-rate`` ↔ ``arrival_rate_hz``, ``--duration-s`` ↔
    ``duration_s``, ``--queue-depth`` ↔ ``queue_depth``, ...), and the
    parent uses :class:`argparse.ArgumentDefaultsHelpFormatter` so both
    ``--help`` pages document the defaults.
    """
    from repro.serve.schemas import SAMPLER_NAMES, ServeConfig

    defaults = ServeConfig()
    parent = argparse.ArgumentParser(add_help=False)
    traffic = parent.add_argument_group("traffic")
    traffic.add_argument(
        "--arrival-rate",
        type=float,
        default=defaults.arrival_rate_hz,
        dest="arrival_rate_hz",
        help="mean open-loop arrival rate (requests/sec)",
    )
    traffic.add_argument(
        "--duration-s",
        type=float,
        default=defaults.duration_s,
        dest="duration_s",
        help="length of the generated traffic trace (seconds)",
    )
    traffic.add_argument(
        "--sampler",
        choices=SAMPLER_NAMES,
        default=defaults.sampler,
        help="inter-arrival process",
    )
    traffic.add_argument(
        "--burst-sigma",
        type=float,
        default=defaults.burst_sigma,
        dest="burst_sigma",
        help="log-rate burst modulation for gauss_poisson",
    )
    traffic.add_argument(
        "--redraw-every",
        type=int,
        default=defaults.redraw_every,
        dest="redraw_every",
        help="requests between importance redraws (cache misses); 0 disables",
    )
    service = parent.add_argument_group("service")
    service.add_argument(
        "--queue-depth",
        type=int,
        default=defaults.queue_depth,
        dest="queue_depth",
        help="ingest queue bound; arrivals beyond it are shed (429-style)",
    )
    service.add_argument(
        "--batch-max",
        type=int,
        default=defaults.batch_max,
        dest="batch_max",
        help="largest batch one dispatch drains",
    )
    service.add_argument(
        "--solver",
        default=defaults.solver,
        help="TATIM solver answering requests",
    )
    service.add_argument(
        "--tasks",
        type=int,
        default=defaults.n_tasks,
        dest="n_tasks",
        help="tasks in the recurring workload geometry",
    )
    service.add_argument(
        "--processors",
        type=int,
        default=defaults.n_processors,
        dest="n_processors",
        help="processors in the recurring workload geometry",
    )
    observability = parent.add_argument_group("observability")
    observability.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        dest="metrics_port",
        help="start the HTTP sidecar (/metrics /healthz /kpis /timeseries) "
        "on this port (0 = ephemeral)",
    )
    observability.add_argument(
        "--window-s",
        type=float,
        default=1.0,
        dest="window_s",
        help="tumbling telemetry window width (seconds)",
    )
    observability.add_argument(
        "--timeseries-out",
        metavar="PATH",
        default=None,
        dest="timeseries_out",
        help="write the windowed telemetry ring as JSONL after the run",
    )
    observability.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        dest="slo",
        help="SLO spec, repeatable: p99_ms=N (p99 latency under N ms) or "
        "rejection_pct=N (under N%% requests shed); bare --slo uses defaults",
        nargs="?",
        const="",
    )
    parent.add_argument("--seed", type=int, default=defaults.seed)
    _add_cache_argument(parent.add_argument_group("performance"))
    return parent


def _serve_config(args: argparse.Namespace):
    from repro.serve.schemas import ServeConfig

    return ServeConfig(
        arrival_rate_hz=args.arrival_rate_hz,
        duration_s=args.duration_s,
        sampler=args.sampler,
        burst_sigma=args.burst_sigma,
        queue_depth=args.queue_depth,
        batch_max=args.batch_max,
        solver=args.solver,
        cache=args.cache,
        n_tasks=args.n_tasks,
        n_processors=args.n_processors,
        redraw_every=args.redraw_every,
        seed=args.seed,
    )


def _parse_slo_specs(specs):
    """Turn ``--slo`` specs into SLO objects (empty/None specs → defaults).

    Grammar: ``p99_ms=N`` (99% of requests faster than N milliseconds)
    and ``rejection_pct=N`` (fewer than N% of requests shed). Repeated
    flags merge; a bare ``--slo`` keeps the stock serving objectives.
    """
    from repro.errors import ConfigurationError
    from repro.telemetry import default_serve_slos

    p99_threshold_s = 0.25
    rejection_objective = 0.99
    for spec in specs:
        if not spec:
            continue
        key, _, value = spec.partition("=")
        try:
            number = float(value)
        except ValueError:
            raise ConfigurationError(f"--slo {spec!r}: expected key=number")
        if key == "p99_ms":
            if number <= 0:
                raise ConfigurationError(f"--slo p99_ms must be > 0, got {number:g}")
            p99_threshold_s = number / 1000.0
        elif key == "rejection_pct":
            if not 0.0 < number < 100.0:
                raise ConfigurationError(
                    f"--slo rejection_pct must be in (0, 100), got {number:g}"
                )
            rejection_objective = 1.0 - number / 100.0
        else:
            raise ConfigurationError(
                f"--slo {spec!r}: unknown key {key!r} (want p99_ms or rejection_pct)"
            )
    return default_serve_slos(
        p99_threshold_s=p99_threshold_s, rejection_objective=rejection_objective
    )


class _ObservabilityStack:
    """The serve/loadgen live-observability wiring behind the CLI flags.

    Owns the window aggregator, SLO evaluator, live KPI tracker, and
    (with ``--metrics-port``) the HTTP sidecar. Built only when one of
    the observability flags is present, so the default serving path pays
    nothing.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.serve import KPITracker, ObservabilityServer
        from repro.telemetry import SLOEvaluator, TimeSeriesAggregator

        self.aggregator = TimeSeriesAggregator(window_s=args.window_s)
        self.evaluator = SLOEvaluator(
            _parse_slo_specs(args.slo or []), self.aggregator
        )
        self.kpis = KPITracker()
        self.server: ObservabilityServer | None = None
        self.timeseries_out = args.timeseries_out
        self.show_slos = args.slo is not None
        if args.metrics_port is not None:
            self.server = ObservabilityServer(
                port=args.metrics_port,
                aggregator=self.aggregator,
                evaluator=self.evaluator,
                kpi_supplier=self.kpis.snapshot_summary,
            )

    @classmethod
    def wanted(cls, args: argparse.Namespace) -> bool:
        """True when any serve observability flag was passed."""
        return (
            getattr(args, "metrics_port", None) is not None
            or getattr(args, "timeseries_out", None) is not None
            or getattr(args, "slo", None) is not None
        )

    def start(self) -> None:
        if self.server is not None:
            self.server.start()
            print(f"observability endpoint: {self.server.url}")

    def finish(self) -> list[str]:
        """Stop the sidecar, flush windows, and render closing output."""
        from repro.telemetry import slo_table

        if self.server is not None:
            self.server.stop()
        self.aggregator.flush()
        statuses = self.evaluator.publish()
        lines: list[str] = []
        if self.timeseries_out is not None:
            self.aggregator.write_jsonl(self.timeseries_out)
            lines.append(
                f"timeseries: {len(self.aggregator)} windows "
                f"({self.aggregator.dropped} dropped) -> {self.timeseries_out}"
            )
        if self.show_slos:
            lines.append(slo_table(statuses))
            if any(s.breaching for s in statuses):
                lines.append("SLO BREACH: error budget burning above threshold")
        return lines


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a JSON metrics snapshot here after the run",
    )
    group.add_argument(
        "--metrics-prom",
        metavar="PATH",
        default=None,
        help="write Prometheus text exposition here after the run",
    )
    group.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the nested span trace (JSONL) here after the run",
    )
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured key=value logging to stderr",
    )


def _command_fig9(args: argparse.Namespace) -> int:
    experiment = _make_experiment(args)
    result = experiment.sweep_processors(tuple(args.processors))
    print(result.table())
    for method in ("RM", "DML", "CRL"):
        print(f"mean {method}/DCTA speedup: {result.mean_speedup(method):.2f}x")
    return 0


def _command_fig10(args: argparse.Namespace) -> int:
    experiment = _make_experiment(args)
    result = experiment.sweep_input_size(tuple(args.sizes))
    print(result.table())
    return 0


def _command_fig11(args: argparse.Namespace) -> int:
    experiment = _make_experiment(args)
    result = experiment.sweep_bandwidth(tuple(args.bandwidths))
    print(result.table())
    return 0


def _command_longtail(args: argparse.Namespace) -> int:
    from repro import BuildingOperationConfig, BuildingOperationDataset, make_strategy
    from repro.importance.importance import importance_profile
    from repro.importance.longtail import long_tail_stats

    dataset = BuildingOperationDataset(
        BuildingOperationConfig(
            n_days=args.days, n_buildings=args.n_buildings, seed=args.seed
        )
    ).generate()
    model_set = make_strategy("clustered", "ridge", seed=args.seed).fit(dataset.tasks)
    days = dataset.days[5 : 5 + min(15, dataset.days.size - 5)]
    profile = importance_profile(dataset, model_set, days)
    stats = long_tail_stats(profile)
    print(f"tasks: {stats.n_tasks}")
    print(f"fraction of tasks for 80% of importance: {stats.fraction_for_80pct:.2%} (paper: 12.72%)")
    print(f"share of top 12.72% of tasks:            {stats.share_of_top_12_72pct:.2%}")
    print(f"Gini coefficient:                        {stats.gini:.3f}")
    return 0


def _command_pipeline(args: argparse.Namespace) -> int:
    from repro import BuildingOperationConfig, DCTASystem, DCTASystemConfig

    system = DCTASystem(
        DCTASystemConfig(
            building=BuildingOperationConfig(
                n_days=args.days, n_buildings=args.n_buildings, seed=args.seed
            ),
            crl_episodes=args.episodes,
            seed=args.seed,
        )
    ).build()
    day = int(system.eval_days[0])
    print(f"{system.dataset.n_tasks} tasks; evaluating day {day}")
    for name, result in system.run_epoch(day).items():
        print(
            f"  {name:5s} PT={result.processing_time:9.1f}s "
            f"tasks={result.tasks_executed:3d} gate={result.gate_crossed}"
        )
    return 0


def _command_telemetry_report(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import RunTrace, snapshot_table

    if args.metrics is None and args.trace is None:
        print("nothing to report: pass --metrics and/or --trace", file=sys.stderr)
        return 2
    if args.metrics is not None:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        print(snapshot_table(data))
    if args.trace is not None:
        trace = RunTrace.read_jsonl(args.trace)
        if args.metrics is not None:
            print()
        print(trace.flame())
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.core.bench import (
        baseline_warnings,
        bench_table,
        check_regressions,
        load_bench_json,
        run_bench,
    )

    baseline = None
    if args.check:
        # Snapshot the baseline before run_bench overwrites the same file.
        baseline = load_bench_json(args.baseline)
        if not baseline:
            print(f"bench --check: no usable baseline at {args.baseline}", file=sys.stderr)
            return 2
        for warning in baseline_warnings(baseline):
            print(f"bench --check: WARNING: {warning}", file=sys.stderr)
    results, notes = run_bench(jobs=args.jobs, rounds=args.rounds, out=args.out)
    print(bench_table(results))
    for note in notes:
        print(note)
    if baseline is not None:
        failures, table = check_regressions(results, baseline, threshold=args.threshold)
        print()
        print(table)
        if failures:
            print()
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("bench --check: no regressions")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import Dispatcher, generate_trace, trace_arrival_stats

    config = _serve_config(args)
    geometry, requests = generate_trace(config)
    stats = trace_arrival_stats(requests)
    print(
        f"trace: {stats['n']} requests over {config.duration_s:g}s "
        f"({config.sampler}, mean gap {stats['gap_mean_s'] * 1e3:.2f}ms, "
        f"gap CV {stats['gap_cv']:.2f})"
    )
    obs = _ObservabilityStack(args) if _ObservabilityStack.wanted(args) else None
    if obs is not None:
        obs.start()
    try:
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.run(
                requests,
                kpis=obs.kpis if obs is not None else None,
                aggregator=obs.aggregator if obs is not None else None,
            )
    finally:
        closing = obs.finish() if obs is not None else []
    print(report.table())
    for line in closing:
        print(line)
    return 0


def _command_edgesim(args: argparse.Namespace) -> int:
    if args.fleet:
        from repro.edgesim.fleet import FleetConfig, FleetSimulator, result_digest

        config = FleetConfig(
            n_nodes=args.nodes,
            n_regions=args.regions,
            duration_s=args.duration_s,
            arrival_rate_hz=args.arrival_rate,
            churn_rate_hz=args.churn_rate,
            window_s=args.window_s,
            seed=args.seed,
        )
        import time as _time

        simulator = FleetSimulator(config)
        wall0 = _time.perf_counter()
        result = simulator.run()
        wall = _time.perf_counter() - wall0
        rate = result.events / wall if wall > 0 else float("inf")
        print(
            f"fleet: {result.n_nodes} nodes / {result.n_regions} regions, "
            f"{result.duration_s:g}s simulated in {wall:.2f}s wall "
            f"({rate:,.0f} events/s)"
        )
        print(f"  digest: {result_digest(result)}")
        print(
            f"  arrivals {result.arrivals}  completed {result.completed}  "
            f"dropped {result.dropped}  redispatched {result.redispatched}"
        )
        print(
            f"  failures {result.failures}  recoveries {result.recoveries}  "
            f"peak in-flight {result.peak_in_flight}"
        )
        print(
            f"  latency mean {result.latency_mean_s:.3f}s  "
            f"p50 {result.latency_p50_s:.3f}s  p95 {result.latency_p95_s:.3f}s  "
            f"p99 {result.latency_p99_s:.3f}s"
        )
        if args.fleet_timeseries_out is not None:
            result.timeseries.write_jsonl(args.fleet_timeseries_out)
            print(f"  timeseries: {len(result.windows)} windows -> {args.fleet_timeseries_out}")
        return 0

    # Default: one testbed epoch.
    from repro.edgesim import (
        EdgeSimulator,
        ExecutionPlan,
        WorkloadGenerator,
        paper_testbed,
    )

    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=args.tasks, seed=args.seed).draw()
    ordered = sorted(tasks, key=lambda t: t.true_importance, reverse=True)
    plan = ExecutionPlan(
        assignments=tuple(
            (task.task_id, i % len(nodes)) for i, task in enumerate(ordered)
        ),
        label="cli-smoke",
    )
    result = EdgeSimulator(nodes, network).run(tasks, plan)
    print(
        f"epoch: {len(tasks)} tasks on {len(nodes)} nodes -> "
        f"PT {result.processing_time:.2f}s, {result.tasks_executed} completed, "
        f"gate {'crossed' if result.gate_crossed else 'missed'}"
    )
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import Dispatcher, generate_trace

    config = _serve_config(args)
    geometry, requests = generate_trace(config)
    obs = _ObservabilityStack(args) if _ObservabilityStack.wanted(args) else None
    if obs is not None:
        obs.start()
    try:
        with Dispatcher(geometry, config) as dispatcher:
            if not args.no_prime:
                # One untimed replay fills the allocation cache, so the paced
                # run below measures warm steady-state serving capacity.
                dispatcher.replay(requests)
            report = dispatcher.run(
                requests,
                kpis=obs.kpis if obs is not None else None,
                aggregator=obs.aggregator if obs is not None else None,
            )
    finally:
        closing = obs.finish() if obs is not None else []
    summary = report.summary
    print(report.table())
    print(
        f"sustained {summary['throughput_rps']:.0f} req/s "
        f"(offered {config.arrival_rate_hz:g}/s, "
        f"{summary['rejected']} rejected, "
        f"p50 {summary['latency_p50_s'] * 1e3:.2f}ms / "
        f"p95 {summary['latency_p95_s'] * 1e3:.2f}ms / "
        f"p99 {summary['latency_p99_s'] * 1e3:.2f}ms)"
    )
    for line in closing:
        print(line)
    return 0


def _command_top(args: argparse.Namespace) -> int:
    import time as _time
    import urllib.error

    from repro.errors import DataError
    from repro.telemetry import (
        parse_timeseries_jsonl,
        read_timeseries_jsonl,
        timeseries_table,
    )

    if (args.endpoint is None) == (args.file is None):
        print("top: pass exactly one of --endpoint or --file", file=sys.stderr)
        return 2

    def render_once() -> None:
        if args.endpoint is not None:
            import json as _json
            import urllib.request

            base = args.endpoint.rstrip("/")
            with urllib.request.urlopen(
                f"{base}/timeseries?last={args.last}", timeout=5
            ) as response:
                meta, windows = parse_timeseries_jsonl(response.read().decode("utf-8"))
            try:
                with urllib.request.urlopen(f"{base}/healthz", timeout=5) as response:
                    health = _json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:  # 503 while breaching
                health = _json.loads(exc.read().decode("utf-8"))
            breaching = ",".join(health.get("breaching", [])) or "-"
            print(
                f"health: {health.get('status', '?')} (breaching: {breaching}) "
                f"windows={meta.get('windows', len(windows))} "
                f"window_s={meta.get('window_s', '?')}"
            )
        else:
            meta, windows = read_timeseries_jsonl(args.file)
        print(timeseries_table(windows, last=args.last))

    iteration = 0
    try:
        while True:
            render_once()
            iteration += 1
            if args.watch is None or (args.iterations and iteration >= args.iterations):
                break
            _time.sleep(max(args.watch, 0.05))
            print()
    except KeyboardInterrupt:
        pass
    except DataError as exc:  # a truncated or malformed timeseries
        print(f"top: DataError: {exc}", file=sys.stderr)
        return 2
    except urllib.error.URLError as exc:  # endpoint down or refusing
        print(f"top: {type(exc).__name__}: {exc.reason}", file=sys.stderr)
        return 2
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.core.report import ReportConfig, generate_report

    print(
        generate_report(
            ReportConfig(
                building_days=args.days,
                crl_episodes=args.episodes,
                seed=args.seed,
            )
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for 'Data-driven Task Allocation for "
        "Multi-task Transfer Learning on the Edge' (ICDCS 2019)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fig9 = commands.add_parser("fig9", help="PT vs number of processors")
    _add_scenario_arguments(fig9)
    fig9.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes the sweep points fan out over (1 = in-process)",
    )
    fig9.add_argument("--processors", type=int, nargs="+", default=[2, 4, 6, 8, 10])
    _add_telemetry_arguments(fig9)
    fig9.set_defaults(handler=_command_fig9)

    fig10 = commands.add_parser("fig10", help="PT vs average input size (Mb)")
    _add_scenario_arguments(fig10)
    fig10.add_argument("--sizes", type=float, nargs="+", default=[200, 400, 600, 800, 1000])
    _add_telemetry_arguments(fig10)
    fig10.set_defaults(handler=_command_fig10)

    fig11 = commands.add_parser("fig11", help="PT vs bandwidth (Mbps)")
    _add_scenario_arguments(fig11)
    fig11.add_argument("--bandwidths", type=float, nargs="+", default=[10, 20, 40, 80, 120])
    _add_telemetry_arguments(fig11)
    fig11.set_defaults(handler=_command_fig11)

    longtail = commands.add_parser("longtail", help="Fig. 2 long-tail statistics")
    # --n-days / --n-buildings mirror the BuildingOperationConfig field
    # names exactly; --days stays as the historical short spelling.
    longtail.add_argument("--days", "--n-days", type=int, default=40, dest="days")
    longtail.add_argument("--n-buildings", type=int, default=3, dest="n_buildings")
    longtail.add_argument("--seed", type=int, default=0)
    _add_telemetry_arguments(longtail)
    longtail.set_defaults(handler=_command_longtail)

    report = commands.add_parser("report", help="compact all-figures reproduction report")
    report.add_argument("--days", type=int, default=30)
    report.add_argument("--episodes", type=int, default=40)
    report.add_argument("--seed", type=int, default=0)
    _add_telemetry_arguments(report)
    report.set_defaults(handler=_command_report)

    pipeline = commands.add_parser("pipeline", help="full building-pipeline DCTA run")
    pipeline.add_argument("--days", "--n-days", type=int, default=25, dest="days")
    pipeline.add_argument("--n-buildings", type=int, default=3, dest="n_buildings")
    pipeline.add_argument("--episodes", type=int, default=30)
    pipeline.add_argument("--seed", type=int, default=0)
    _add_cache_argument(pipeline.add_argument_group("performance"))
    _add_telemetry_arguments(pipeline)
    pipeline.set_defaults(handler=_command_pipeline)

    bench = commands.add_parser(
        "bench", help="run tracked perf benchmarks and update BENCH_perf.json"
    )
    bench.add_argument(
        "--jobs", type=int, default=4, help="worker processes the pool warms before the benches"
    )
    bench.add_argument("--rounds", type=int, default=3, help="minimum timing rounds per bench")
    bench.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_perf.json",
        help="results JSON to write (use /dev/null to skip)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="compare against a baseline BENCH_perf.json and exit 1 on regression",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        default="BENCH_perf.json",
        help="baseline JSON for --check (read before --out is updated)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="default allowed current/baseline ratio for --check",
    )
    _add_telemetry_arguments(bench)
    bench.set_defaults(handler=_command_bench)

    # NOTE: argparse parents share action objects between parsers, so each
    # subcommand gets its own parent instance — loadgen's different
    # arrival-rate default must not leak into serve's help/default.
    serve = commands.add_parser(
        "serve",
        help="run the allocation service against generated open-loop traffic",
        parents=[_serve_parent_parser()],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_telemetry_arguments(serve)
    serve.set_defaults(handler=_command_serve)

    edgesim = commands.add_parser(
        "edgesim",
        help="run the edge DES: testbed epoch smoke or --fleet scale run",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    edgesim.add_argument(
        "--fleet",
        action="store_true",
        help="open-loop fleet run (vectorized engine) instead of the testbed epoch",
    )
    edgesim.add_argument("--tasks", type=int, default=50, help="epoch tasks (non-fleet)")
    edgesim.add_argument("--nodes", type=int, default=1000, help="fleet size")
    edgesim.add_argument("--regions", type=int, default=8, help="fleet regions")
    edgesim.add_argument("--duration-s", type=float, default=60.0, dest="duration_s")
    edgesim.add_argument(
        "--arrival-rate", type=float, default=30.0, help="fleet arrivals per second"
    )
    edgesim.add_argument(
        "--churn-rate", type=float, default=0.0, help="node failures per second"
    )
    edgesim.add_argument(
        "--window-s", type=float, default=10.0, dest="window_s",
        help="streaming metrics window width (simulated seconds)",
    )
    edgesim.add_argument(
        "--timeseries-out",
        metavar="PATH",
        default=None,
        dest="fleet_timeseries_out",
        help="write the fleet run's window ring as JSONL",
    )
    edgesim.add_argument("--seed", type=int, default=0)
    _add_telemetry_arguments(edgesim)
    edgesim.set_defaults(handler=_command_edgesim)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive sustained load through the dispatcher and report KPIs",
        parents=[_serve_parent_parser()],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    loadgen.add_argument(
        "--no-prime",
        action="store_true",
        help="skip the untimed cache-priming replay (measure cold serving)",
    )
    # Loadgen exists to demonstrate sustained serving capacity; default to
    # a rate that exercises the warm-cache path hard.
    loadgen.set_defaults(arrival_rate_hz=2000.0, handler=_command_loadgen)
    _add_telemetry_arguments(loadgen)

    top = commands.add_parser(
        "top",
        help="render live telemetry windows from a serve endpoint or timeseries file",
    )
    top.add_argument(
        "--endpoint",
        metavar="URL",
        default=None,
        help="base URL of a running observability sidecar (e.g. http://127.0.0.1:9109)",
    )
    top.add_argument(
        "--file",
        metavar="PATH",
        default=None,
        help="timeseries.jsonl written by --timeseries-out",
    )
    top.add_argument("--last", type=int, default=12, help="windows to show")
    top.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render every N seconds (endpoint mode; ctrl-c to stop)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop --watch after N renders (0 = until interrupted)",
    )
    top.set_defaults(handler=_command_top)

    telemetry = commands.add_parser(
        "telemetry-report", help="render saved metrics/trace files as tables"
    )
    telemetry.add_argument("--metrics", metavar="PATH", default=None, help="metrics.json from --metrics-out")
    telemetry.add_argument("--trace", metavar="PATH", default=None, help="trace.jsonl from --trace-out")
    telemetry.set_defaults(handler=_command_telemetry_report)

    return parser


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Install registry/trace sinks around the handler and write outputs."""
    metrics_out = getattr(args, "metrics_out", None)
    metrics_prom = getattr(args, "metrics_prom", None)
    trace_out = getattr(args, "trace_out", None)
    log_level = getattr(args, "log_level", None)
    if log_level is not None:
        configure_logging(log_level)

    collect_metrics = (
        metrics_out is not None
        or metrics_prom is not None
        # The live observability plane needs a real registry too: the
        # aggregator snapshots it and the sidecar scrapes it.
        or getattr(args, "metrics_port", None) is not None
        or getattr(args, "timeseries_out", None) is not None
        or getattr(args, "slo", None) is not None
    )
    registry = MetricsRegistry() if collect_metrics else None
    trace = RunTrace(label=args.command) if trace_out is not None else None
    with contextlib.ExitStack() as stack:
        if registry is not None:
            stack.enter_context(use_registry(registry))
        if trace is not None:
            stack.enter_context(use_run_trace(trace))
        if getattr(args, "cache", False):
            from repro.tatim.cache import AllocationCache, use_allocation_cache

            stack.enter_context(use_allocation_cache(AllocationCache()))
        status = args.handler(args)

    logger = get_logger("cli")
    if metrics_out is not None:
        write_metrics_json(registry, metrics_out)
        logger.info(kv(event="metrics_written", path=metrics_out))
    if metrics_prom is not None:
        with open(metrics_prom, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(registry))
        logger.info(kv(event="metrics_written", path=metrics_prom))
    if trace_out is not None:
        trace.write_jsonl(trace_out)
        logger.info(kv(event="trace_written", path=trace_out, spans=len(trace.spans)))
    return status


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_telemetry(args)
    except ConfigurationError as error:
        # An invalid flag value: one line and argparse's exit status.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
