"""One workload in a fresh interpreter; prints one JSON line as its result.

Started by ``run.py``; not meant to be run by hand. The package under test
is imported from ``src/`` of the checkout that holds this directory and
nowhere else, so a directory without ``src/`` fails the import.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_repro() -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    return time.perf_counter() - start


def _hwm_mib(pid: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the peak of each live worker child."""
    try:
        children = []
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                children.extend(handle.read().split())
        total = _hwm_mib("self")
        for pid in children:
            try:
                total += _hwm_mib(pid)
            except OSError:
                pass  # the worker exited between listing and reading
        return total
    except OSError:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (usage + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def measure(workload, seconds: float) -> dict:
    """Repeat the timed operation for ``seconds``, checking every output."""
    deadline = time.perf_counter() + max(seconds - workload.reserve_s, 0.0)
    walls, rates, errors = [], [], []
    attempted = failed = 0
    while True:
        wall, work, output = workload.run_once()
        op_errors = workload.check(output)
        del output  # keep one operation's output alive at a time
        walls.append(wall)
        rates.append(work / wall)
        units = work if workload.counts_units else 1
        attempted += units
        failed += min(units, len(op_errors)) if workload.counts_units else int(bool(op_errors))
        errors += op_errors
        # At least two operations, so the first one's one-time costs never
        # stand alone as the median.
        if len(walls) >= 2 and time.perf_counter() + wall > deadline:
            break
    peak = peak_rss_mib()
    extra_attempted, extra_failed, extra_errors = workload.after_loop()
    return {
        "walls": walls,
        "rates": rates,
        "peak_rss_mib": peak,
        "attempted": attempted + extra_attempted,
        "failed": failed + extra_failed,
        "errors": errors + extra_errors,
        "report": workload.report(walls, rates),
    }


def trace(workload, import_s: float, seed: int) -> dict:
    """Untraced and traced passes; per-layer self times and counts."""
    from tracer import Tracer

    tracer = Tracer()
    extra = workload.trace(tracer)
    errors = extra.pop("errors")
    totals, calls = tracer.self_times()
    layers = {"core.import_s": import_s}
    for span_name, metric in (
        ("building.generate", "building.generate_s"),
        ("transfer.fit", "transfer.fit_s"),
        ("importance.matrix", "importance.matrix_s"),
        ("importance.day", "importance.day_s"),
        ("rl.crl_fit", "rl.crl_fit_s"),
        ("rl.allocate", "rl.allocate_s"),
        ("allocation.local_fit", "allocation.local_fit_s"),
        ("allocation.plan.RM", "allocation.plan_s.RM"),
        ("allocation.plan.DML", "allocation.plan_s.DML"),
        ("allocation.plan.CRL", "allocation.plan_s.CRL"),
        ("allocation.plan.DCTA", "allocation.plan_s.DCTA"),
        ("tatim.solve", "tatim.solve_s"),
        ("tatim.cache_get", "tatim.cache_get_s"),
        ("tatim.cache_put", "tatim.cache_put_s"),
        ("edgesim.epoch_run", "edgesim.epoch_run_s"),
        ("edgesim.pop_cohort", "edgesim.pop_cohort_s"),
        ("edgesim.schedule_batch", "edgesim.schedule_batch_s"),
        ("edgesim.fleet", "edgesim.fleet_self_s"),
        ("telemetry.observe_batch", "telemetry.observe_batch_s"),
        ("telemetry.tick", "telemetry.tick_s"),
    ):
        layers[metric] = totals.get(span_name, 0.0)
    for span_name, metric in (
        ("importance.day", "importance.day_calls"),
        ("rl.crl_fit", "rl.crl_fits"),
        ("tatim.solve", "tatim.solves"),
        ("tatim.cache_get", "tatim.cache_gets"),
        ("edgesim.epoch_run", "edgesim.epoch_runs"),
    ):
        layers[metric] = calls.get(span_name, 0)
    gets = calls.get("tatim.cache_get", 0)
    layers["tatim.cache_hit_ratio"] = tracer.hits / gets if gets else 0.0
    layers["edgesim.cohorts"] = tracer.cohorts
    layers["edgesim.events_per_cohort"] = (
        tracer.cohort_events / tracer.cohorts if tracer.cohorts else 0.0
    )
    layers.update(extra)
    tracer.write_jsonl(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return {"layers": layers, "errors": errors, "attempted": 1, "failed": int(bool(errors))}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_s = _import_repro()
    import selftest
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    result = {"setup_s": time.perf_counter() - STARTED, "import_s": import_s}
    if not args.setup_only:
        try:
            if args.trace:
                result.update(trace(workload, import_s, args.seed))
            else:
                result.update(measure(workload, args.seconds))
            result["errors"] += selftest.run()
        finally:
            from repro.parallel import shutdown_worker_pool

            shutdown_worker_pool()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
