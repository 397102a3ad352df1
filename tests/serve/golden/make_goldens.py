"""Regenerate the served-answer golden.

Run from the repo root::

    PYTHONPATH=src python tests/serve/golden/make_goldens.py

The golden pins what the dispatcher answers for fixed
:func:`~repro.serve.generate_trace` configs: a SHA-256 over
``ServeReport.identities()`` (request id, status, assignment, objective;
no timings, no trace ids) of one cold :meth:`Dispatcher.replay` per case.
The cases cover the three greedy solvers on the default 24x4 geometry and
the exact ``branch_and_bound`` on a 12-task geometry, each with the
allocation cache on and off. Any change to the solvers, the cache key,
miss deduplication or batching moves these digests. Regenerating is only
legitimate for a deliberate change to what the service answers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.serve import Dispatcher, ServeConfig, generate_trace

GOLDEN_PATH = Path(__file__).resolve().parent / "serve_identities_golden.json"

#: Traffic shared by every case: enough regimes that each replay makes
#: real solves, small enough that the whole golden replays in seconds.
TRAFFIC = dict(arrival_rate_hz=1000.0, duration_s=0.3, batch_max=32, redraw_every=20, seed=7)

#: case name -> ServeConfig overrides on top of :data:`TRAFFIC`.
CASES: dict[str, dict] = {}
for _solver in ("density_greedy", "importance_greedy", "best_fit_greedy"):
    for _cache in (True, False):
        CASES[f"{_solver}/cache={'on' if _cache else 'off'}"] = dict(
            solver=_solver, cache=_cache, n_tasks=24, n_processors=4
        )
for _cache in (True, False):
    CASES[f"branch_and_bound/cache={'on' if _cache else 'off'}"] = dict(
        solver="branch_and_bound", cache=_cache, n_tasks=12, n_processors=3, duration_s=0.05
    )


def case_config(name: str) -> ServeConfig:
    return ServeConfig(**{**TRAFFIC, **CASES[name]})


def identities_sha256(identities) -> str:
    """Digest of a replay's identities, canonical JSON (tuples as lists)."""
    return hashlib.sha256(json.dumps(identities).encode()).hexdigest()


def replay_case(name: str) -> tuple[int, str]:
    """``(requests, sha256)`` of one cold replay of the case's trace."""
    config = case_config(name)
    geometry, requests = generate_trace(config)
    with Dispatcher(geometry, config) as dispatcher:
        identities = dispatcher.replay(requests).identities()
    return len(identities), identities_sha256(identities)


def main() -> None:
    cases = {}
    for name in CASES:
        count, digest = replay_case(name)
        cases[name] = {"config": {**TRAFFIC, **CASES[name]}, "requests": count, "sha256": digest}
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
