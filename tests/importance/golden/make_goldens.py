"""Regenerate the task-importance goldens.

Run from the repo root::

    PYTHONPATH=src python tests/importance/golden/make_goldens.py

Three cases are pinned, each as space-separated IEEE-754 hex values plus
a SHA-256 over them, so the comparison is bitwise:

* ``pipeline`` — :meth:`ImportanceEvaluator.importance_matrix` over every
  day of the ``pipeline`` benchmark config (40 days x 3 buildings,
  clustered ridge, seed 1).
* ``unclipped`` — the same on a small dataset with ``clip_negative=False``,
  so negative transfer (and the sign of zero) is pinned too.
* ``shapley`` — :meth:`ShapleyImportanceEvaluator.importance_for_day` on
  the small dataset, two consecutive days from one evaluator (so the
  permutation rng stream is pinned as well).

Any change to the decision function, the COP prediction path or the
importance arithmetic moves these values. Regenerating is only legitimate
for a deliberate change to Definition 1 or the sequencing model.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.importance.importance import ImportanceEvaluator
from repro.importance.shapley import ShapleyImportanceEvaluator
from repro.transfer.registry import make_strategy

GOLDEN_PATH = Path(__file__).resolve().parent / "importance_golden.json"

#: The ``pipeline`` benchmark's building data and MTL fit at seed 1.
PIPELINE = dict(n_days=40, n_buildings=3, seed=1)
#: A small dataset: a handful of days, two buildings.
SMALL = dict(n_days=15, n_buildings=2, seed=11)
UNCLIPPED_DAYS = tuple(range(15))
SHAPLEY = dict(n_permutations=4, seed=9)
SHAPLEY_DAYS = (1, 4)
CASES = ("pipeline", "unclipped", "shapley")


def pipeline_objects(config: dict):
    """(dataset, clustered-ridge model set) for one building config."""
    dataset = BuildingOperationDataset(BuildingOperationConfig(**config)).generate()
    model_set = make_strategy("clustered", "ridge", seed=config["seed"]).fit(dataset.tasks)
    return dataset, model_set


def _hex(matrix: np.ndarray) -> list[str]:
    return [float(value).hex() for value in np.asarray(matrix, dtype=float).ravel()]


def case_hex(name: str, *, jobs: int = 1) -> list[str]:
    """One pinned case as a flat list of ``float.hex`` strings."""
    if name == "pipeline":
        dataset, model_set = pipeline_objects(PIPELINE)
        evaluator = ImportanceEvaluator(dataset, model_set, jobs=jobs)
        return _hex(evaluator.importance_matrix(dataset.days))
    dataset, model_set = pipeline_objects(SMALL)
    if name == "unclipped":
        evaluator = ImportanceEvaluator(dataset, model_set, clip_negative=False, jobs=jobs)
        return _hex(evaluator.importance_matrix(UNCLIPPED_DAYS))
    if name == "shapley":
        shapley = ShapleyImportanceEvaluator(dataset, model_set, jobs=jobs, **SHAPLEY)
        return _hex(np.vstack([shapley.importance_for_day(day) for day in SHAPLEY_DAYS]))
    raise KeyError(name)


def values_sha256(values: list[str]) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(value.encode())
    return digest.hexdigest()


def main() -> None:
    golden = {
        "config": {
            "pipeline": PIPELINE,
            "small": SMALL,
            "unclipped_days": list(UNCLIPPED_DAYS),
            "shapley": SHAPLEY,
            "shapley_days": list(SHAPLEY_DAYS),
        },
    }
    for name in CASES:
        values = case_hex(name)
        golden[name] = {"hex": " ".join(values), "sha256": values_sha256(values)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
