import numpy as np
import pytest

from repro.errors import DataError
from repro.transfer.decision import MTLDecisionModel, nameplate_cop


@pytest.fixture(scope="module")
def decision_model(small_dataset, small_model_set):
    return MTLDecisionModel(small_dataset, small_model_set)


class TestNameplate:
    def test_nameplate_is_rated_cop(self, small_dataset):
        chiller = small_dataset.plants[0].chillers[0]
        assert nameplate_cop(chiller) == chiller.model_type.rated_cop

    def test_nameplate_ignores_degradation(self, small_dataset):
        chiller = small_dataset.plants[0].chillers[0]
        if chiller.age_years > 0:
            true_cop = float(chiller.cop(chiller.model_type.plr_optimum, 25.0))
            assert nameplate_cop(chiller) != pytest.approx(true_cop, rel=1e-3)


class TestPredictedCop:
    def test_prediction_in_physical_range(self, decision_model, small_dataset):
        chiller = small_dataset.plants[0].chillers[0]
        cop = decision_model.predicted_cop(chiller, 0.7, 28.0)
        assert 0.5 <= cop <= 12.0

    def test_uncovered_band_falls_back_to_nameplate(self, decision_model, small_dataset):
        # PLR below every band's low edge has no covering task.
        chiller = small_dataset.plants[0].chillers[0]
        cop = decision_model.predicted_cop(chiller, 0.01, 25.0)
        assert cop == pytest.approx(nameplate_cop(chiller))

    def test_caching_is_stable(self, decision_model, small_dataset):
        chiller = small_dataset.plants[0].chillers[0]
        first = decision_model.predicted_cop(chiller, 0.66, 27.0)
        second = decision_model.predicted_cop(chiller, 0.66, 27.0)
        assert first == second


class TestPerformance:
    def test_building_performance_in_unit_interval(self, decision_model, small_dataset):
        scenarios = small_dataset.scenarios_for_day(0, 3)
        score = decision_model.building_performance(0, scenarios)
        assert 0.0 <= score <= 1.0

    def test_trained_models_beat_no_models(self, small_dataset, small_model_set, decision_model):
        """H with fitted task models should be >= H with nameplate fallback only."""
        from repro.transfer.task import LearningTask, TaskModelSet

        unfitted = TaskModelSet(
            [LearningTask(data=task.data, model=None) for task in small_model_set]
        )
        bare = MTLDecisionModel(small_dataset, unfitted)
        days = small_dataset.days[2:6]
        trained_scores = [decision_model.overall_performance(int(d)) for d in days]
        bare_scores = [bare.overall_performance(int(d)) for d in days]
        assert np.mean(trained_scores) >= np.mean(bare_scores) - 1e-6

    def test_bad_building_rejected(self, decision_model):
        with pytest.raises(DataError):
            decision_model.building_performance(99, [(100.0, 25.0)])

    def test_overall_performance_is_mean_of_buildings(self, decision_model, small_dataset):
        day = int(small_dataset.days[4])
        per_building = [
            decision_model.building_performance(b, small_dataset.scenarios_for_day(b, day))
            for b in range(len(small_dataset.plants))
        ]
        assert decision_model.overall_performance(day) == pytest.approx(
            float(np.mean(per_building))
        )


class TestCopTable:
    def test_full_set_matches_fresh_model(self, small_dataset, small_model_set):
        for building in range(len(small_dataset.plants)):
            scenarios = small_dataset.scenarios_for_day(building, 3)
            table = MTLDecisionModel(small_dataset, small_model_set).cop_table(
                building, scenarios
            )
            fresh = MTLDecisionModel(small_dataset, small_model_set)
            assert table.performance() == fresh.building_performance(building, scenarios)

    def test_dropping_every_task_is_nameplate_sequencing(
        self, small_dataset, small_model_set
    ):
        from repro.transfer.task import LearningTask, TaskModelSet

        unfitted = TaskModelSet(
            [LearningTask(data=task.data, model=None) for task in small_model_set]
        )
        scenarios = small_dataset.scenarios_for_day(1, 5)
        table = MTLDecisionModel(small_dataset, small_model_set).cop_table(1, scenarios)
        bare = MTLDecisionModel(small_dataset, unfitted).building_performance(1, scenarios)
        assert table.performance(small_model_set.task_ids) == bare

    def test_bad_inputs_rejected(self, decision_model, small_dataset):
        with pytest.raises(DataError):
            decision_model.cop_table(len(small_dataset.plants), [(500.0, 25.0)])
        with pytest.raises(DataError):
            decision_model.cop_table(0, [])
