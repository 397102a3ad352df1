"""Perf: the evaluation hot path — leave-one-out and Shapley importance."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.importance.importance import ImportanceEvaluator
from repro.importance.shapley import ShapleyImportanceEvaluator
from repro.transfer.registry import make_strategy


@pytest.fixture(scope="module")
def importance_setup():
    dataset = BuildingOperationDataset(
        BuildingOperationConfig(n_days=12, n_buildings=2, seed=3)
    ).generate()
    model_set = make_strategy("clustered", "ridge", seed=0).fit(dataset.tasks)
    return dataset, model_set


def test_perf_loo_importance(track, importance_setup):
    dataset, model_set = importance_setup
    days = np.arange(8)
    matrix = track(
        "loo_importance_jobs1",
        lambda: ImportanceEvaluator(dataset, model_set).importance_matrix(days),
    )
    assert matrix.shape == (days.size, len(model_set.task_ids))


def test_perf_shapley_importance(track, importance_setup):
    dataset, model_set = importance_setup
    # Fresh evaluator per call: the cross-call coalition cache must not
    # leak warmth between timed rounds.
    values = track(
        "shapley_importance_jobs1",
        lambda: ShapleyImportanceEvaluator(
            dataset, model_set, n_permutations=8, seed=5
        ).importance_for_day(1),
    )
    assert values.shape == (len(model_set.task_ids),)


def test_shapley_cross_call_cache_reuses_coalition_values(importance_setup):
    """Serial repeat evaluations of a day reuse the coalition-value memo."""
    dataset, model_set = importance_setup
    evaluator = ShapleyImportanceEvaluator(dataset, model_set, n_permutations=4, seed=5)
    first = evaluator.importance_for_day(1)
    cache_size = len(evaluator._value_caches[1])
    assert cache_size > 0
    started = time.perf_counter()
    second = evaluator.importance_for_day(1)
    warm_s = time.perf_counter() - started
    # New permutations add at most a few new coalitions; most values hit.
    assert len(evaluator._value_caches[1]) >= cache_size
    assert second.shape == first.shape
    assert warm_s < 60  # sanity ceiling; the real claim is the cache hit count
