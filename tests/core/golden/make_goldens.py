"""Regenerate the Fig. 9 processing-time golden.

Run from the repo root::

    PYTHONPATH=src python tests/core/golden/make_goldens.py

The golden pins the simulated Processing Time (PT) of a small
``PTExperiment.sweep_processors`` run: the RM and DML columns as IEEE-754
hex plus a SHA-256 over them, so the comparison is bitwise. Only RM and
DML are pinned because their plans carry constant modeled allocation
times; CRL and DCTA add measured wall-clock ``allocation_time`` to PT and
so differ from run to run. Any change to the epoch simulator's timing
model, event order or gate logic moves these values. Regenerating is only
legitimate for a deliberate change to the simulated testbed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.experiment import PTExperiment
from repro.core.scenario import ScenarioConfig, SyntheticScenario

GOLDEN_PATH = Path(__file__).resolve().parent / "fig9_pt_golden.json"

#: Small enough to run in a few seconds, big enough that every point has
#: queueing on the shared medium and some tasks miss the quality gate.
SCENARIO = dict(n_tasks=20, n_regimes=2, n_history=8, n_eval=4, seed=3)
PROCESSORS = (2, 4, 6, 10)
CRL_EPISODES = 10
QUALITY_THRESHOLD = 0.9
SEED = 0
METHODS = ("RM", "DML")


def pt_columns() -> dict[str, list[str]]:
    """The pinned PT columns of the sweep, as ``float.hex`` strings."""
    scenario = SyntheticScenario(ScenarioConfig(**SCENARIO))
    experiment = PTExperiment(
        scenario,
        quality_threshold=QUALITY_THRESHOLD,
        crl_episodes=CRL_EPISODES,
        jobs=1,
        seed=SEED,
    )
    result = experiment.sweep_processors(PROCESSORS)
    return {name: [float(v).hex() for v in result.times[name]] for name in METHODS}


def columns_sha256(columns: dict[str, list[str]]) -> str:
    digest = hashlib.sha256()
    for name in METHODS:
        digest.update(name.encode())
        for value in columns[name]:
            digest.update(value.encode())
    return digest.hexdigest()


def main() -> None:
    columns = pt_columns()
    golden = {
        "config": {
            "scenario": SCENARIO,
            "processors": list(PROCESSORS),
            "crl_episodes": CRL_EPISODES,
            "quality_threshold": QUALITY_THRESHOLD,
            "seed": SEED,
        },
        "pt_hex": columns,
        "pt_sha256": columns_sha256(columns),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
