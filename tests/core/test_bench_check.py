"""Bench regression gate: ``check_regressions`` and ``repro bench --check``."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from repro.cli import main
from repro.core.bench import (
    DEFAULT_THRESHOLD,
    MIN_GATED_SECONDS,
    PER_BENCH_THRESHOLD,
    bench_commit,
    check_regressions,
    load_bench_json,
    record,
)


def _entry(mean_s, std_s=0.0, rounds=3):
    return {"mean_s": mean_s, "std_s": std_s, "rounds": rounds, "commit": "abc"}


class TestCheckRegressions:
    def test_clean_run_passes(self):
        baseline = {"a": _entry(1.0), "b": _entry(0.5)}
        current = {"a": _entry(1.05), "b": _entry(0.45)}
        failures, table = check_regressions(current, baseline)
        assert failures == []
        assert "REGRESSION" not in table

    def test_regression_detected(self):
        failures, table = check_regressions({"a": _entry(2.0)}, {"a": _entry(1.0)})
        assert len(failures) == 1
        assert failures[0].startswith("a: 2.0000s vs baseline 1.0000s")
        assert "REGRESSION" in table

    def test_threshold_boundary_is_exclusive(self):
        # Exactly at baseline * threshold: not a regression (strict >).
        current = {"a": _entry(1.0 * DEFAULT_THRESHOLD)}
        failures, _ = check_regressions(current, {"a": _entry(1.0)})
        assert failures == []

    def test_std_slack_absorbs_noisy_rounds(self):
        # 1.30x exceeds the 1.25x limit, but 2 * std_s of slack covers it.
        baseline = {"a": _entry(1.0, std_s=0.05)}
        failures, _ = check_regressions({"a": _entry(1.30)}, baseline)
        assert failures == []
        # The same ratio with tight stds fails.
        failures, _ = check_regressions(
            {"a": _entry(1.30)}, {"a": _entry(1.0, std_s=0.001)}
        )
        assert len(failures) == 1

    def test_micro_benches_reported_but_ungated(self):
        base_mean = MIN_GATED_SECONDS / 2
        failures, table = check_regressions(
            {"tiny": _entry(base_mean * 50)}, {"tiny": _entry(base_mean)}
        )
        assert failures == []
        assert "ungated: micro" in table

    def test_new_and_missing_benches_are_benign(self):
        failures, table = check_regressions(
            {"added": _entry(1.0)}, {"removed": _entry(1.0)}
        )
        assert failures == []
        assert "new" in table and "missing" in table

    def test_per_bench_override_loosens_the_gate(self):
        name = "plan_10x_uncached"
        assert PER_BENCH_THRESHOLD[name] > DEFAULT_THRESHOLD
        ratio = (DEFAULT_THRESHOLD + PER_BENCH_THRESHOLD[name]) / 2
        current = {name: _entry(ratio), "other": _entry(ratio)}
        baseline = {name: _entry(1.0), "other": _entry(1.0)}
        failures, _ = check_regressions(current, baseline)
        # Same ratio: the overridden bench passes, the default-gated fails.
        assert failures == [
            f"other: {ratio:.4f}s vs baseline 1.0000s "
            f"(ratio {ratio:.2f}x > limit {DEFAULT_THRESHOLD:.2f}x + noise 0.0000s)"
        ]

    def test_explicit_threshold_wins_over_default(self):
        failures, _ = check_regressions(
            {"a": _entry(1.5)}, {"a": _entry(1.0)}, threshold=2.0
        )
        assert failures == []


class TestLoadBenchJson:
    def test_missing_file(self, tmp_path):
        assert load_bench_json(tmp_path / "nope.json") == {}

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert load_bench_json(path) == {}

    def test_round_trip_via_record(self, tmp_path):
        results: dict = {}
        record(results, "a", 1.25, 3, std_s=0.01, commit="abc")
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(results), encoding="utf-8")
        assert load_bench_json(path) == results


class TestBenchCheckCli:
    """Exit codes for ``repro bench --check`` with a stubbed bench run."""

    @pytest.fixture
    def fake_bench(self, monkeypatch, tmp_path):
        """Patch ``run_bench`` to return canned results; yield knobs."""
        state = {"results": {}, "baseline_path": tmp_path / "BENCH_perf.json"}

        def run_bench_stub(**kwargs):
            return dict(state["results"]), ["machine: stub"]

        import repro.core.bench as bench_module

        monkeypatch.setattr(bench_module, "run_bench", run_bench_stub)
        return state

    def _check(self, state, tmp_path):
        return main(
            [
                "bench",
                "--check",
                "--baseline",
                str(state["baseline_path"]),
                "--out",
                str(tmp_path / "fresh.json"),
            ]
        )

    def test_missing_baseline_exits_2(self, fake_bench, tmp_path, capsys):
        assert self._check(fake_bench, tmp_path) == 2
        assert "no usable baseline" in capsys.readouterr().err

    def test_clean_run_exits_0(self, fake_bench, tmp_path, capsys):
        fake_bench["baseline_path"].write_text(
            json.dumps({"a": _entry(1.0)}), encoding="utf-8"
        )
        fake_bench["results"] = {"a": _entry(1.01)}
        assert self._check(fake_bench, tmp_path) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_1(self, fake_bench, tmp_path, capsys):
        fake_bench["baseline_path"].write_text(
            json.dumps({"a": _entry(1.0)}), encoding="utf-8"
        )
        fake_bench["results"] = {"a": _entry(10.0)}
        assert self._check(fake_bench, tmp_path) == 1
        captured = capsys.readouterr()
        assert "REGRESSION: a:" in captured.err
        assert "bench regression check" in captured.out


class TestBenchExtras:
    def test_table_surfaces_extras(self):
        from repro.core.bench import bench_table

        results = {}
        record(
            results, "fleet", 1.0, 3, commit="abc",
            extra={"events_per_sec": 42.5, "peak_alloc_mib": 10.0},
        )
        record(results, "plain", 2.0, 3, commit="abc")
        table = bench_table(results)
        assert "extras" in table
        assert "events_per_sec=42.5" in table
        assert "peak_alloc_mib=10.0" in table

    def test_version_stamps_stay_out_of_the_extras_column(self):
        from repro.core.bench import bench_table

        results = {}
        record(results, "plain", 2.0, 3, commit="abc")
        assert "python=" not in bench_table(results)
        assert "numpy=" not in bench_table(results)


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_bench_commit_marks_a_dirty_tree(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("a\n", encoding="utf-8")
    git("add", "tracked.txt")
    git(
        "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
        "-c", "commit.gpgsign=false", "commit", "-q", "-m", "init",
    )
    monkeypatch.chdir(tmp_path)
    clean = bench_commit()
    assert clean != "unknown" and not clean.endswith("-dirty")
    (tmp_path / "tracked.txt").write_text("b\n", encoding="utf-8")
    assert bench_commit() == f"{clean}-dirty"
