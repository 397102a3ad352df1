"""Task importance is pinned bitwise: goldens, a Definition-1 oracle, day order.

See ``golden/make_goldens.py`` for what the goldens pin. The oracle scores
every J \\ {j} through the public decision-model path — a fresh
:class:`MTLDecisionModel` over ``model_set.without(j)`` — and the
evaluator must reproduce it to the last bit.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.importance.importance import ImportanceEvaluator
from repro.transfer.decision import MTLDecisionModel

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_make_goldens():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_importance_make_goldens", GOLDEN_DIR / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDENS = _load_make_goldens()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((GOLDEN_DIR / "importance_golden.json").read_text(encoding="utf-8"))


@pytest.fixture
def force_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_FORCE_PARALLEL", "1")
    yield
    from repro.parallel import shutdown_worker_pool

    shutdown_worker_pool()


def _assert_case(golden: dict, name: str, jobs: int) -> None:
    values = MAKE_GOLDENS.case_hex(name, jobs=jobs)
    assert values == golden[name]["hex"].split()
    assert MAKE_GOLDENS.values_sha256(values) == golden[name]["sha256"]


class TestGoldens:
    def test_pipeline_matrix_matches_golden(self, golden):
        _assert_case(golden, "pipeline", jobs=1)

    def test_unclipped_matrix_matches_golden(self, golden):
        _assert_case(golden, "unclipped", jobs=1)

    def test_shapley_matches_golden(self, golden):
        _assert_case(golden, "shapley", jobs=1)

    def test_unclipped_matrix_matches_golden_across_workers(self, golden, force_parallel):
        _assert_case(golden, "unclipped", jobs=2)

    def test_shapley_matches_golden_across_workers(self, golden, force_parallel):
        _assert_case(golden, "shapley", jobs=2)


def _definition_one(dataset, model_set, day: int, clip_negative: bool) -> np.ndarray:
    """I_j from fresh decision models over J and J \\ {j}, one per task."""
    n_buildings = len(dataset.plants)
    full = [
        MTLDecisionModel(dataset, model_set).building_performance(
            building, dataset.scenarios_for_day(building, day)
        )
        for building in range(n_buildings)
    ]
    oracle = np.zeros(len(model_set))
    for position, task_id in enumerate(model_set.task_ids):
        building = model_set.get(task_id).data.building_id
        reduced = MTLDecisionModel(dataset, model_set.without(task_id)).building_performance(
            building, dataset.scenarios_for_day(building, day)
        )
        delta = (np.float64(full[building]) - reduced) / n_buildings
        oracle[position] = max(delta, 0.0) if clip_negative else delta
    return oracle


class TestDefinitionOneOracle:
    @pytest.mark.parametrize("clip_negative", [True, False])
    @pytest.mark.parametrize("day", [0, 4, 9])
    def test_matches_fresh_decision_models(
        self, small_dataset, small_model_set, day, clip_negative
    ):
        evaluator = ImportanceEvaluator(
            small_dataset, small_model_set, clip_negative=clip_negative
        )
        fast = evaluator.importance_for_day(day)
        oracle = _definition_one(small_dataset, small_model_set, day, clip_negative)
        assert fast.tobytes() == oracle.tobytes()


class TestDayOrder:
    def test_row_independent_of_evaluation_order(self, small_dataset, small_model_set):
        days = np.arange(small_dataset.days.size)
        forward = ImportanceEvaluator(small_dataset, small_model_set).importance_matrix(days)
        backward = ImportanceEvaluator(small_dataset, small_model_set).importance_matrix(
            days[::-1]
        )[::-1]
        for row, day in enumerate(days):
            fresh = ImportanceEvaluator(small_dataset, small_model_set).importance_for_day(
                int(day)
            )
            assert fresh.tobytes() == forward[row].tobytes()
            assert fresh.tobytes() == backward[row].tobytes()
