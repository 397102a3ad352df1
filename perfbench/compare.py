"""Compare two sets of benchmark records (``run.py --out``): parent against change.

For each workload it prints the median and quartiles of every end-to-end
metric on both sides, flags a metric whose change median is worse than
the parent median by more than the metric's bound in ``BENCHMARK.json``,
and names the per-layer self time (from ``--trace 1`` records) that
moved most, with the end-to-end metric that layer is expected to move.
Exits 1 when a metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

#: Per-layer metric prefix -> the end-to-end metric it should move, and where.
#: The longest matching prefix applies.
LAYER_MOVES = {
    "core.import_s": "setup_s on every workload",
    "building.": "wall_s on pipeline (none elsewhere)",
    "transfer.": "wall_s on pipeline (none elsewhere)",
    "importance.": "wall_s on pipeline (none on fig9, serve or fleet)",
    "rl.": "wall_s on fig9 and pipeline (none on serve or fleet)",
    "allocation.": "wall_s on fig9 and pipeline; dcta_pt_s too, as plan wall time enters "
    "simulated PT",
    "tatim.": "serve: hits -> serve_p50_ms, solves -> serve_p99_ms, serve_max_rps and wall_s "
    "(small on fig9, none on fleet)",
    "serve.": "serve_p99_ms, serve_max_rps and failed_share on serve",
    "edgesim.epoch_run": "wall_s on pipeline and fig9 (predicted: no visible move)",
    "edgesim.": "wall_s and work_per_s on fleet (none elsewhere)",
    "edgesim.peak_in_flight": "peak_rss_mib on fleet",
    "telemetry.": "wall_s and work_per_s on fleet",
    "parallel.": "wall_s on fig9 and fleet, peak_rss_mib (predicted no move on pipeline: "
    "the pool declines)",
    "trace.": "none: the cost of tracing itself",
}


def moves(metric: str) -> str:
    prefix = max((p for p in LAYER_MOVES if metric.startswith(p)), key=len, default=None)
    return LAYER_MOVES[prefix] if prefix else "unknown"


def load(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _series(records, workload: str, trace: int, key: str, name: str) -> list[float]:
    return [
        r[key][name]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and name in r[key]
    ]


def compare(parent: list[dict], change: list[dict], bench: dict) -> tuple[list[str], int]:
    """Report lines and the number of flagged metrics."""
    lines: list[str] = []
    flagged = 0
    for workload in (w["name"] for w in bench["workloads"]):
        if not any(r["workload"] == workload for r in parent + change):
            continue
        lines.append(f"== {workload}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = _series(parent, workload, 0, "metrics", name)
            c = _series(change, workload, 0, "metrics", name)
            if not p or not c:
                lines.append(f"  {name}: missing on {'parent' if not p else 'change'}")
                continue
            pq, cq = quartiles(p), quartiles(c)
            worse = (cq[1] - pq[1]) / pq[1] * (1 if metric["better"] == "lower" else -1)
            spread = (pq[2] - pq[0]) / pq[1]
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                flagged += 1
            elif spread > metric["bound"]:
                verdict = "unresolved (parent spread above bound)"
            lines.append(
                f"  {name} [{metric['unit']}]:"
                f" parent {pq[1]:.4g} ({pq[0]:.4g}-{pq[2]:.4g}, n={len(p)})"
                f"  change {cq[1]:.4g} ({cq[0]:.4g}-{cq[2]:.4g}, n={len(c)})"
                f"  worse by {worse:+.1%} (bound {metric['bound']:.0%}): {verdict}"
            )
        reported = sorted(
            {k for r in parent + change if r["workload"] == workload for k in r.get("report", {})}
        )
        for name in reported:
            p = _series(parent, workload, 0, "report", name)
            c = _series(change, workload, 0, "report", name)
            if p and c:
                lines.append(
                    f"  {name}: parent {statistics.median(p):.4g}"
                    f"  change {statistics.median(c):.4g}"
                    "  (reported, not gated)"
                )
        moved = []
        for metric in bench["per_layer"]:
            name = metric["name"]
            p = _series(parent, workload, 1, "metrics", name)
            c = _series(change, workload, 1, "metrics", name)
            if p and c and metric["unit"] == "s" and name != "trace.overhead_s":
                moved.append((statistics.median(c) - statistics.median(p), name, p, c))
        if moved:
            delta, name, p, c = max(moved, key=lambda item: abs(item[0]))
            lines.append(
                f"  layer self time that moved most: {name} {statistics.median(p):.4g} s -> "
                f"{statistics.median(c):.4g} s ({delta:+.4g} s); expected to move {moves(name)}"
            )
        else:
            lines.append(
                "  no traced records on both sides: run with --trace 1 to attribute by layer"
            )
    return lines, flagged


def main(argv: list[str], bench_path: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="records of the parent commit (JSONL)")
    parser.add_argument("change", type=Path, help="records of the change (JSONL)")
    args = parser.parse_args(argv)
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    lines, flagged = compare(load(args.parent), load(args.change), bench)
    print("\n".join(lines))
    if flagged:
        print(f"{flagged} metric(s) worse than their bound")
        return 1
    print("no metric worse than its bound")
    return 0
