"""CLI smoke tests (fast subcommands only)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig9_defaults(self):
        args = build_parser().parse_args(["fig9"])
        assert args.tasks == 50
        assert args.processors == [2, 4, 6, 8, 10]

    def test_fig11_custom_bandwidths(self):
        args = build_parser().parse_args(["fig11", "--bandwidths", "5", "15"])
        assert args.bandwidths == [5.0, 15.0]

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_report_command_registered(self):
        args = build_parser().parse_args(["report", "--days", "8"])
        assert args.days == 8

    def test_pipeline_command_registered(self):
        args = build_parser().parse_args(["pipeline", "--episodes", "5"])
        assert args.episodes == 5

    def test_telemetry_flags_on_every_experiment_subcommand(self):
        for command in ("fig9", "fig10", "fig11", "longtail", "report", "pipeline"):
            args = build_parser().parse_args([command, "--metrics-out", "m.json"])
            assert args.metrics_out == "m.json"
            assert args.trace_out is None

    def test_telemetry_report_registered(self):
        args = build_parser().parse_args(["telemetry-report", "--metrics", "m.json"])
        assert args.metrics == "m.json"

    def test_serve_observability_flags(self):
        for command in ("serve", "loadgen"):
            args = build_parser().parse_args(
                [
                    command,
                    "--metrics-port",
                    "0",
                    "--window-s",
                    "0.5",
                    "--timeseries-out",
                    "ts.jsonl",
                    "--slo",
                    "p99_ms=250",
                    "--slo",
                    "rejection_pct=2",
                ]
            )
            assert args.metrics_port == 0
            assert args.window_s == 0.5
            assert args.timeseries_out == "ts.jsonl"
            assert args.slo == ["p99_ms=250", "rejection_pct=2"]

    def test_bare_slo_flag_means_defaults(self):
        args = build_parser().parse_args(["loadgen", "--slo"])
        assert args.slo == [""]
        assert build_parser().parse_args(["loadgen"]).slo is None

    def test_top_registered(self):
        args = build_parser().parse_args(
            ["top", "--file", "ts.jsonl", "--last", "6", "--watch", "0.5"]
        )
        assert args.file == "ts.jsonl"
        assert args.endpoint is None
        assert args.last == 6
        assert args.watch == 0.5
        assert args.iterations == 0


class TestExecution:
    def test_longtail_runs(self, capsys):
        code = main(["longtail", "--days", "10", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "80% of importance" in out
        assert "Gini" in out

    def test_fig11_tiny_run(self, capsys):
        code = main(
            [
                "fig11",
                "--tasks",
                "10",
                "--episodes",
                "5",
                "--history",
                "8",
                "--eval-epochs",
                "1",
                "--bandwidths",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DCTA" in out and "bandwidth_mbps" in out


class TestTelemetryOutputs:
    def test_longtail_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        code = main(
            [
                "longtail",
                "--days",
                "10",
                "--n-buildings",
                "2",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        data = json.loads(metrics_path.read_text())
        names = {entry["name"] for entry in data["metrics"]}
        assert "repro_building_datasets_generated_total" in names
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta" and lines[0]["label"] == "longtail"
        assert any(l["kind"] == "span" for l in lines[1:])

    def test_telemetry_report_renders_saved_files(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        main(
            [
                "longtail",
                "--days",
                "10",
                "--n-buildings",
                "2",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "telemetry-report",
                "--metrics",
                str(metrics_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_building_generate_seconds" in out
        assert "trace 'longtail'" in out

    def test_telemetry_report_requires_an_input(self, capsys):
        assert main(["telemetry-report"]) == 2

    def test_default_run_leaves_telemetry_disabled(self):
        from repro.telemetry import current_run_trace, telemetry_enabled

        code = main(["longtail", "--days", "10", "--n-buildings", "2"])
        assert code == 0
        assert not telemetry_enabled()
        assert current_run_trace() is None


class TestSloSpecs:
    def test_empty_specs_yield_defaults(self):
        from repro.cli import _parse_slo_specs

        slos = _parse_slo_specs([])
        assert [s.name for s in slos] == ["latency_p99", "rejection_rate"]

    def test_p99_ms_sets_latency_threshold(self):
        from repro.cli import _parse_slo_specs

        slos = _parse_slo_specs(["p99_ms=100"])
        latency = next(s for s in slos if s.kind == "latency")
        assert latency.threshold_s == pytest.approx(0.1)

    def test_rejection_pct_sets_objective(self):
        from repro.cli import _parse_slo_specs

        slos = _parse_slo_specs(["rejection_pct=2"])
        rejection = next(s for s in slos if s.kind == "error_rate")
        assert rejection.objective == pytest.approx(0.98)

    def test_unknown_or_malformed_specs_rejected(self):
        from repro.cli import _parse_slo_specs
        from repro.errors import ConfigurationError

        for bad in ("p42_ms=1", "p99_ms", "p99_ms=fast", "rejection_pct=-3"):
            with pytest.raises(ConfigurationError):
                _parse_slo_specs([bad])


class TestObservabilityCli:
    """loadgen --timeseries-out/--slo and the top renderer, end to end."""

    def loadgen_args(self, tmp_path):
        return [
            "loadgen",
            "--arrival-rate",
            "400",
            "--duration-s",
            "0.05",
            "--tasks",
            "8",
            "--processors",
            "2",
            "--window-s",
            "0.05",
            "--timeseries-out",
            str(tmp_path / "ts.jsonl"),
            "--slo",
            "p99_ms=250",
        ]

    def test_loadgen_writes_timeseries_and_slo_verdicts(self, tmp_path, capsys):
        code = main(self.loadgen_args(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "latency_p99" in out  # SLO table rendered after the run
        lines = [json.loads(l) for l in (tmp_path / "ts.jsonl").read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["windows"] >= 1
        assert any(l["kind"] == "window" for l in lines[1:])

    def test_top_renders_timeseries_file(self, tmp_path, capsys):
        main(self.loadgen_args(tmp_path))
        capsys.readouterr()
        code = main(["top", "--file", str(tmp_path / "ts.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "window" in out
        assert "serve_requests/s" in out

    def test_top_reports_a_truncated_file_in_one_line(self, tmp_path, capsys):
        from repro.telemetry import MetricsRegistry, TimeSeriesAggregator

        registry = MetricsRegistry()
        clock = [0.0]
        aggregator = TimeSeriesAggregator(registry, window_s=1.0, clock=lambda: clock[0])
        for tick in range(1, 4):
            registry.counter("repro_serve_requests_total", status="ok").inc()
            clock[0] = float(tick)
            aggregator.maybe_tick()
        path = tmp_path / "ts.jsonl"
        aggregator.write_jsonl(path)
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

        assert main(["top", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("top: DataError: invalid timeseries JSONL line")

    def test_top_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["top"]) == 2
        assert main(["top", "--endpoint", "http://x", "--file", "f"]) == 2
