"""Integration test: the full building-pipeline DCTA system."""

import numpy as np
import pytest

from repro.building.dataset import BuildingOperationConfig
from repro.core.dcta_system import DCTASystem, DCTASystemConfig
from repro.errors import ConfigurationError, DataError
from repro.parallel import get_worker_pool, shutdown_worker_pool


@pytest.fixture(scope="module")
def system():
    config = DCTASystemConfig(
        building=BuildingOperationConfig(n_days=14, n_buildings=2, seed=21),
        n_processors=4,
        crl_clusters=2,
        crl_episodes=10,
        dqn_hidden=(16,),
        seed=0,
    )
    return DCTASystem(config).build()


class TestBuild:
    def test_invalid_history_fraction(self):
        with pytest.raises(ConfigurationError):
            DCTASystemConfig(history_fraction=1.5)

    def test_unbuilt_access_raises(self):
        fresh = DCTASystem()
        with pytest.raises(DataError):
            fresh.run_epoch(0)

    def test_components_present(self, system):
        assert set(system.allocators) == {"RM", "DML", "CRL", "DCTA"}
        assert system.importance_history.shape[0] == system.history_days.size
        assert len(system.workload) == system.dataset.n_tasks

    def test_history_eval_split_disjoint(self, system):
        assert set(system.history_days).isdisjoint(set(system.eval_days))

    def test_workload_sizes_track_sample_counts(self, system):
        counts = np.array([t.n_samples for t in system.dataset.tasks])
        sizes = np.array([t.input_mb for t in system.workload])
        assert np.corrcoef(counts, sizes)[0, 1] > 0.99


class TestMemory:
    def test_jobs_config_starts_no_worker(self, child_pids):
        """CRL trains in-process, so a jobs=2 build forks no worker: each
        worker would hold its own interpreter and numpy on an edge node."""
        shutdown_worker_pool()
        before = child_pids()  # e.g. multiprocessing's resource tracker
        spinups = get_worker_pool().spinups
        config = DCTASystemConfig(
            building=BuildingOperationConfig(n_days=14, n_buildings=2, seed=21),
            n_processors=4,
            crl_clusters=2,
            crl_episodes=10,
            dqn_hidden=(16,),
            jobs=2,
            seed=0,
        )
        DCTASystem(config).build()
        assert get_worker_pool().spinups == spinups
        assert child_pids() <= before


class TestRunEpoch:
    def test_all_policies_produce_results(self, system):
        day = int(system.eval_days[0])
        results = system.run_epoch(day)
        assert set(results) == {"RM", "DML", "CRL", "DCTA"}
        for name, result in results.items():
            assert result.gate_crossed, name
            assert result.processing_time > 0.0

    def test_context_for_day_shapes(self, system):
        day = int(system.eval_days[0])
        context = system.context_for_day(day)
        assert context.features.shape == (system.dataset.n_tasks, 10)
        assert context.sensing.size == 6 * len(system.dataset.plants)

    def test_workload_importance_nonnegative(self, system):
        day = int(system.eval_days[0])
        workload = system.workload_for_day(day)
        assert all(task.true_importance >= 0.0 for task in workload)


class TestDecisionQuality:
    def test_full_selection_scores_high(self, system):
        day = int(system.eval_days[0])
        all_ids = [task.task_id for task in system.dataset.tasks]
        quality = system.decision_quality(day, all_ids)
        assert 0.0 <= quality <= 1.0

    def test_empty_selection_rejected(self, system):
        with pytest.raises(DataError):
            system.decision_quality(int(system.eval_days[0]), [])

    def test_importance_aware_selection_beats_drop_of_important(self, system):
        """Keeping the most important tasks preserves H better than keeping
        the least important ones (the Fig. 3 mechanism)."""
        day = int(system.eval_days[0])
        importance = system.evaluator.importance_for_day(day)
        order = np.argsort(-importance)
        k = max(3, len(order) // 3)
        task_ids = system.model_set.task_ids
        top = [task_ids[i] for i in order[:k]]
        bottom = [task_ids[i] for i in order[-k:]]
        assert system.decision_quality(day, top) >= system.decision_quality(day, bottom)
