"""Regenerate the fleet-engine golden.

Run from the repo root::

    PYTHONPATH=src python tests/edgesim/golden/make_goldens.py

Four fleet configs are pinned, each two ways:

* ``run_digest`` — :func:`~repro.edgesim.fleet.result_digest` of
  ``FleetSimulator(config).run()``;
* ``trace_sha256`` — a SHA-256 over every completion span the run hands
  to a :class:`~repro.edgesim.trace.Trace` (task, node, start and end as
  ``float.hex``), so the node each task ran on and its exact completion
  time are pinned, not only the aggregates.

The configs cover the routing paths of the engine: a 10k-node fleet with
churn, a fleet small enough that whole regions go down (tasks drop), a
bursty fleet where several tasks land on one node in one cohort, and the
CI smoke config. Any change to routing, the radio FIFO, node FIFOs or
event order moves these values. Regenerating is only legitimate for a
deliberate change to the fleet model.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.edgesim.fleet import FleetConfig, FleetSimulator, result_digest
from repro.edgesim.trace import Trace

GOLDEN_PATH = Path(__file__).resolve().parent / "fleet_golden.json"

CONFIGS = {
    "churn_10k": dict(n_nodes=10_000, churn_rate_hz=10.0, seed=1),
    # 2 nodes per region and 3 failures/s: whole regions go down.
    "region_outages": dict(
        n_nodes=40,
        n_regions=20,
        arrival_rate_hz=20.0,
        churn_rate_hz=3.0,
        recovery_s=20.0,
        duration_s=60.0,
        seed=2,
    ),
    # 3 nodes per region under bursty load: nodes collide within a cohort.
    "node_collisions": dict(
        n_nodes=30,
        n_regions=10,
        arrival_rate_hz=50.0,
        churn_rate_hz=5.0,
        recovery_s=10.0,
        duration_s=60.0,
        sampler="gauss_poisson",
        seed=3,
    ),
    # `repro edgesim --fleet` as the CI smoke steps call it.
    "ci_smoke": dict(
        n_nodes=5000,
        n_regions=40,
        arrival_rate_hz=150.0,
        churn_rate_hz=1.0,
        duration_s=30.0,
        seed=0,
    ),
}


def trace_sha256(trace: Trace) -> str:
    digest = hashlib.sha256()
    for event in trace.events:
        digest.update(
            f"{event.task_id} {event.node_id} "
            f"{float(event.start).hex()} {float(event.end).hex()}\n".encode()
        )
    return digest.hexdigest()


def case(name: str) -> dict:
    """The pinned outcome of one config."""
    config = FleetConfig(**CONFIGS[name])
    trace = Trace()
    result = FleetSimulator(config).run(trace=trace)
    return {
        "completed": result.completed,
        "dropped": result.dropped,
        "redispatched": result.redispatched,
        "run_digest": result_digest(result),
        "trace_events": len(trace.events),
        "trace_sha256": trace_sha256(trace),
    }


def main() -> None:
    golden = {
        "configs": CONFIGS,
        "cases": {name: case(name) for name in CONFIGS},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
