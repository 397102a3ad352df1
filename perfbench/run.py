"""Repo benchmark: four workloads of the DCTA reproduction, end to end and by layer.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fleet --seed 1 --trace 1 --out fleet.jsonl

Workloads are named in ``BENCHMARK.json``; each runs in a fresh
interpreter (``child.py``). ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs untraced and traced passes and prints the per-layer
self times and counts plus the tracing overhead. The last line of
standard output is one JSON object; the lines before it name every
metric with its unit. The exit code is 1 when an output check fails.
``--out`` appends the run's record to a JSONL file for ``compare``.

Compare two sets of records (parent against change)::

    python3 perfbench/run.py compare parent.jsonl change.jsonl

Run the checks' self-tests alone::

    python3 perfbench/run.py selftest
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra interpreters started only to time set-up (the measured run adds one more).
SETUP_PROBES = 2
#: Every run ends within this many seconds.
RUN_LIMIT_S = 175.0


class ChildFailed(RuntimeError):
    """A workload interpreter exited non-zero or printed no result."""


def run_child(options: list[str], timeout_s: float) -> dict:
    """Run ``child.py`` with ``options`` in a fresh interpreter; its JSON result."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *options],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload did not finish within {timeout_s:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"workload exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(args, bench: dict) -> tuple[dict, dict, dict]:
    """``(metrics, report, child result)`` of one run."""
    started = time.monotonic()
    options = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    if args.trace:
        child = run_child([*options, "--trace", "1"], remaining())
        layers = child["layers"]
        metrics = {m["name"]: layers.get(m["name"], 0) for m in bench["per_layer"]}
        return metrics, {}, child
    setups = [
        run_child([*options, "--setup-only"], remaining())["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    child = run_child([*options, "--seconds", str(args.seconds)], remaining())
    setups.append(child["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": child["peak_rss_mib"],
        "wall_s": statistics.median(child["walls"]),
        "work_per_s": statistics.median(child["rates"]),
    }
    report = {name: tuple(value) for name, value in child["report"].items()}
    report["failed_share"] = (child["failed"] / child["attempted"], "ratio")
    report["timed_ops"] = (len(child["walls"]), "count")
    return metrics, report, child


def main_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append the record here (JSONL)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        metrics, report, child = measure(args, bench)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for error in child["errors"]:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    correct = not child["errors"] and child["failed"] == 0
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "correct": correct,
            "metrics": metrics,
            "report": {name: value for name, (value, _unit) in report.items()},
        }
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    result = {
        "correct": correct,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], ROOT / "BENCHMARK.json")
    if argv[:1] == ["selftest"]:
        sys.path.insert(0, str(ROOT / "src"))
        import selftest

        failures = selftest.run()
        for failure in failures:
            print(f"selftest: {failure}", file=sys.stderr)
        verdict = "FAILED" if failures else "every check passes good and fails broken results"
        print(f"selftest: {verdict}")
        return 1 if failures else 0
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
