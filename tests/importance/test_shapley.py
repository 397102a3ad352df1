import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.importance.importance import ImportanceEvaluator
from repro.importance.shapley import ShapleyImportanceEvaluator, compare_importance_metrics


@pytest.fixture(scope="module")
def shapley(small_dataset, small_model_set):
    return ShapleyImportanceEvaluator(
        small_dataset, small_model_set, n_permutations=3, seed=0
    )


class TestShapleyEvaluator:
    def test_invalid_permutations(self, small_dataset, small_model_set):
        with pytest.raises(ConfigurationError):
            ShapleyImportanceEvaluator(small_dataset, small_model_set, n_permutations=0)

    def test_shape(self, shapley, small_dataset):
        day = int(small_dataset.days[4])
        values = shapley.importance_for_day(day)
        assert values.shape == (small_dataset.n_tasks,)

    def test_efficiency_axiom(self, shapley, small_dataset, small_model_set):
        """Shapley values sum exactly to H(full) - H(empty)."""
        day = int(small_dataset.days[4])
        values = shapley.importance_for_day(day)
        cache: dict = {}
        full = shapley._coalition_value(small_model_set.task_ids, day, cache)
        empty = shapley._coalition_value([], day, cache)
        assert values.sum() == pytest.approx(full - empty, abs=1e-9)

    def test_deterministic_given_seed(self, small_dataset, small_model_set):
        day = int(small_dataset.days[4])
        a = ShapleyImportanceEvaluator(
            small_dataset, small_model_set, n_permutations=2, seed=7
        ).importance_for_day(day)
        b = ShapleyImportanceEvaluator(
            small_dataset, small_model_set, n_permutations=2, seed=7
        ).importance_for_day(day)
        assert np.allclose(a, b)

    def test_cross_call_cache_does_not_change_results(
        self, small_dataset, small_model_set
    ):
        evaluator = ShapleyImportanceEvaluator(
            small_dataset, small_model_set, n_permutations=3, seed=2
        )
        fresh = ShapleyImportanceEvaluator(
            small_dataset, small_model_set, n_permutations=3, seed=2
        )
        evaluator.importance_for_day(1)  # warm the day-1 coalition memo
        cache_size = len(evaluator._value_caches[1])
        assert cache_size > 0
        # Re-seed a twin evaluator and replay both calls: the warm memo
        # must be invisible in the results.
        warm = ShapleyImportanceEvaluator(
            small_dataset, small_model_set, n_permutations=3, seed=2
        )
        warm._value_caches = evaluator._value_caches
        assert np.array_equal(warm.importance_for_day(1), fresh.importance_for_day(1))
        # Repeat calls reuse and extend the shared memo; they never drop it.
        assert len(evaluator._value_caches[1]) >= cache_size


class TestMetricComparison:
    def test_both_metrics_returned(self, small_dataset, small_model_set):
        day = int(small_dataset.days[5])
        metrics = compare_importance_metrics(
            small_dataset, small_model_set, day, n_permutations=2, seed=0
        )
        assert set(metrics) == {"leave_one_out", "shapley"}
        assert metrics["leave_one_out"].shape == metrics["shapley"].shape

    def test_metrics_positively_related(self, small_dataset, small_model_set):
        """On near-additive days the two metrics agree on who matters."""
        day = int(small_dataset.days[5])
        metrics = compare_importance_metrics(
            small_dataset, small_model_set, day, n_permutations=4, seed=1
        )
        loo, shapley = metrics["leave_one_out"], metrics["shapley"]
        if loo.std() > 0 and shapley.std() > 0:
            correlation = float(np.corrcoef(loo, shapley)[0, 1])
            assert correlation > 0.0
