"""CRL and DCTA allocator policies over a synthetic scenario."""

import numpy as np
import pytest

from repro.allocation.base import EpochContext, tatim_from_workload
from repro.allocation.crl_policy import CRLAllocator
from repro.allocation.dcta import DCTAAllocator
from repro.allocation.local import LocalProcess
from repro.core.experiment import build_allocators, optimal_selection_labels
from repro.edgesim.testbed import scaled_testbed
from repro.errors import ConfigurationError, DataError
from repro.rl.crl import CRLModel
from repro.rl.dqn import DQNConfig


@pytest.fixture(scope="module")
def trained(small_scenario):
    nodes, network = scaled_testbed(4)
    allocators = build_allocators(
        small_scenario, nodes, crl_episodes=20, crl_clusters=2, dqn_hidden=(32,), seed=0
    )
    return small_scenario, nodes, network, allocators


class TestCRLAllocator:
    def test_requires_sensing_context(self, trained):
        scenario, nodes, _, allocators = trained
        workload = scenario.workload_for(scenario.eval_epochs[0])
        with pytest.raises(ConfigurationError):
            allocators["CRL"].plan(workload, nodes, None)

    def test_plan_covers_all_tasks(self, trained):
        scenario, nodes, _, allocators = trained
        epoch = scenario.eval_epochs[0]
        workload = scenario.workload_for(epoch)
        context = EpochContext(sensing=epoch.sensing, features=epoch.features)
        plan = allocators["CRL"].plan(workload, nodes, context)
        assert sorted(t for t, _ in plan.assignments) == list(range(len(workload)))

    def test_geometry_mismatch_rejected(self, trained):
        scenario, nodes, _, allocators = trained
        epoch = scenario.eval_epochs[0]
        workload = scenario.workload_for(epoch)[:-1]
        context = EpochContext(sensing=epoch.sensing)
        with pytest.raises(DataError):
            allocators["CRL"].plan(workload, nodes, context)

    def test_allocation_time_recorded(self, trained):
        scenario, nodes, _, allocators = trained
        epoch = scenario.eval_epochs[0]
        workload = scenario.workload_for(epoch)
        context = EpochContext(sensing=epoch.sensing)
        plan = allocators["CRL"].plan(workload, nodes, context)
        assert plan.allocation_time > 0.0


class TestDCTAAllocator:
    def test_requires_features(self, trained):
        scenario, nodes, _, allocators = trained
        epoch = scenario.eval_epochs[0]
        workload = scenario.workload_for(epoch)
        with pytest.raises(ConfigurationError):
            allocators["DCTA"].plan(
                workload, nodes, EpochContext(sensing=epoch.sensing, features=None)
            )

    def test_weights_normalized(self, trained):
        scenario, *_ , allocators = trained
        dcta = allocators["DCTA"]
        assert dcta.w1 + dcta.w2 == pytest.approx(1.0)

    def test_invalid_weights(self, trained):
        scenario, nodes, _, allocators = trained
        crl_model = allocators["CRL"].model
        local = allocators["DCTA"].local_process
        with pytest.raises(ConfigurationError):
            DCTAAllocator(crl_model, local, w1=0.0, w2=0.0)
        with pytest.raises(ConfigurationError):
            DCTAAllocator(crl_model, local, w1=-1.0, w2=2.0)

    def test_combined_scores_shape(self, trained):
        scenario, *_, allocators = trained
        epoch = scenario.eval_epochs[0]
        scores = allocators["DCTA"].combined_scores(epoch.sensing, epoch.features)
        assert scores.shape == (len(scenario.tasks),)
        assert np.all(scores >= 0.0)

    def test_pure_local_weights_track_local_scores(self, trained):
        scenario, nodes, _, allocators = trained
        epoch = scenario.eval_epochs[0]
        dcta = allocators["DCTA"]
        pure_local = DCTAAllocator(dcta.crl_model, dcta.local_process, w1=0.0, w2=1.0)
        combined = pure_local.combined_scores(epoch.sensing, epoch.features)
        local = dcta.local_process.scores(epoch.features)
        top = float(local.max()) or 1.0
        assert np.allclose(combined, local / top)

    def test_fit_weights_improves_or_keeps_agreement(self, trained):
        scenario, nodes, _, allocators = trained
        dcta = allocators["DCTA"]
        contexts = [
            EpochContext(sensing=e.sensing, features=e.features)
            for e in scenario.history_epochs[:4]
        ]
        selections = [
            optimal_selection_labels(scenario, e, nodes)
            for e in scenario.history_epochs[:4]
        ]
        w1, w2 = dcta.fit_weights(contexts, selections)
        assert 0.0 <= w1 <= 1.0
        assert w1 + w2 == pytest.approx(1.0)

    def test_fit_weights_alignment_enforced(self, trained):
        scenario, *_, allocators = trained
        with pytest.raises(DataError):
            allocators["DCTA"].fit_weights([], [])


class TestEstimationQuality:
    def test_dcta_estimates_track_truth_better_than_random(self, trained):
        """Combined scores correlate positively with true importance."""
        scenario, *_, allocators = trained
        correlations = []
        for epoch in scenario.eval_epochs:
            scores = allocators["DCTA"].combined_scores(epoch.sensing, epoch.features)
            if scores.std() > 0:
                correlations.append(
                    float(np.corrcoef(scores, epoch.true_importance)[0, 1])
                )
        assert np.mean(correlations) > 0.2
