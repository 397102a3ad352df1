import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import repro.rl.crl as crl_module
from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.parallel import get_shared_store, get_worker_pool
from repro.rl.crl import (
    AgentTrainTask,
    CRLModel,
    EnvironmentStore,
    train_allocation_agent,
    train_allocation_agents_stacked,
)
from repro.rl.dqn import DQNConfig
from repro.tatim.generators import random_instance


@pytest.fixture
def geometry():
    return random_instance(8, 2, seed=0)


@pytest.fixture
def store(geometry, rng):
    """Two well-separated regimes with distinct importance profiles."""
    store = EnvironmentStore()
    base_a = np.abs(rng.normal(size=8))
    base_b = np.abs(rng.normal(size=8))
    for i in range(16):
        if i % 2 == 0:
            store.add(rng.normal(0.0, 0.3, size=4), base_a * (1 + 0.1 * rng.normal(size=8)))
        else:
            store.add(rng.normal(8.0, 0.3, size=4), base_b * (1 + 0.1 * rng.normal(size=8)))
    return store, base_a, base_b


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _agent_state(agent) -> tuple:
    return (
        agent.online._flat_params.tobytes(),
        agent.target._flat_params.tobytes(),
        np.float64(agent.epsilon).tobytes(),
        agent._steps,
    )


class TestEnvironmentStore:
    def test_add_and_len(self, rng):
        store = EnvironmentStore()
        store.add(rng.normal(size=3), rng.random(5))
        assert len(store) == 1

    def test_dimension_consistency_enforced(self, rng):
        store = EnvironmentStore()
        store.add(np.zeros(3), np.zeros(5))
        with pytest.raises(DataError):
            store.add(np.zeros(4), np.zeros(5))
        with pytest.raises(DataError):
            store.add(np.zeros(3), np.zeros(6))

    def test_empty_store_rejects_queries(self):
        with pytest.raises(DataError):
            EnvironmentStore().knn_importance(np.zeros(3))

    def test_knn_recovers_regime(self, store):
        environments, base_a, base_b = store
        estimate_a = environments.knn_importance(np.zeros(4), k=3)
        estimate_b = environments.knn_importance(np.full(4, 8.0), k=3)
        # Each estimate should be closer to its own regime's base profile.
        assert np.linalg.norm(estimate_a - base_a) < np.linalg.norm(estimate_a - base_b)
        assert np.linalg.norm(estimate_b - base_b) < np.linalg.norm(estimate_b - base_a)


class TestCRLModel:
    def _fast_model(self, geometry, **kwargs):
        defaults = dict(
            n_clusters=2,
            episodes=30,
            dqn_config=DQNConfig(hidden_sizes=(32,)),
            seed=0,
        )
        defaults.update(kwargs)
        return CRLModel(geometry, **defaults)

    def test_invalid_mode(self, geometry):
        with pytest.raises(ConfigurationError):
            CRLModel(geometry, mode="sideways")

    def test_unfitted_raises(self, geometry):
        model = self._fast_model(geometry)
        with pytest.raises(NotFittedError):
            model.allocate(np.zeros(4))

    def test_fit_empty_store_rejected(self, geometry):
        with pytest.raises(DataError):
            self._fast_model(geometry).fit(EnvironmentStore())

    def test_offline_allocation_feasible(self, geometry, store):
        environments, *_ = store
        model = self._fast_model(geometry).fit(environments)
        allocation = model.allocate(np.zeros(4))
        assert allocation.is_feasible(geometry)

    def test_estimate_importance_shape(self, geometry, store):
        environments, *_ = store
        model = self._fast_model(geometry).fit(environments)
        assert model.estimate_importance(np.zeros(4)).shape == (8,)

    def test_selection_scores_zero_for_unselected(self, geometry, store):
        environments, *_ = store
        model = self._fast_model(geometry).fit(environments)
        scores = model.selection_scores(np.zeros(4))
        allocation = model.allocate(np.zeros(4))
        unselected = set(range(8)) - set(int(t) for t in allocation.assigned_tasks())
        for task in unselected:
            assert scores[task] == 0.0

    def test_online_mode_caches_agents(self, geometry, store):
        environments, *_ = store
        model = self._fast_model(geometry, mode="online", episodes=10).fit(environments)
        model.allocate(np.zeros(4))
        first_count = len(model._online_agents)
        model.allocate(np.zeros(4) + 0.01)  # same neighbourhood
        assert len(model._online_agents) == first_count

    def test_demonstration_seeding_fills_buffer(self, geometry, store):
        environments, *_ = store
        with_demo = self._fast_model(geometry, episodes=1).fit(environments)
        without_demo = self._fast_model(
            geometry, episodes=1, seed_demonstrations=False
        ).fit(environments)
        demo_buffer = next(iter(with_demo._cluster_agents.values())).buffer
        bare_buffer = next(iter(without_demo._cluster_agents.values())).buffer
        assert len(demo_buffer) > len(bare_buffer) - 5  # demo adds a full episode

    def test_regime_changes_allocation_value(self, geometry, store):
        """CRL adapts: different sensing regimes produce different selections."""
        environments, base_a, base_b = store
        model = self._fast_model(geometry, episodes=60).fit(environments)
        alloc_a = model.allocate(np.zeros(4))
        value_a_under_a = alloc_a.objective(geometry.scaled(importance=base_a))
        value_a_under_b = alloc_a.objective(geometry.scaled(importance=base_b))
        # The allocation tuned for regime A should be worth at least as much
        # under A's importance as under B's in most cases; assert it is
        # non-trivial under its own regime.
        assert value_a_under_a > 0.0


class TestEnvironmentStoreCache:
    def test_stacked_matrices_cached_and_rebuilt_on_add(self, rng):
        store = EnvironmentStore()
        store.add(rng.normal(size=3), rng.random(5))
        first = store.sensing_matrix
        assert store.sensing_matrix is first  # cached between adds
        store.add(rng.normal(size=3), rng.random(5))
        rebuilt = store.sensing_matrix
        assert rebuilt is not first
        assert rebuilt.shape == (2, 3)
        assert store.importance_matrix.shape == (2, 5)

    def test_nearest_indices_unchanged_by_caching(self, rng):
        """The cached stack must return the same kNN answers as fresh stacks."""
        store = EnvironmentStore()
        rows = [rng.normal(size=4) for _ in range(10)]
        profiles = [rng.random(6) for _ in range(10)]
        for row, profile in zip(rows, profiles):
            store.add(row, profile)
        query = rng.normal(size=4)
        from repro.ml.knn import nearest_indices

        cached = nearest_indices(query.reshape(1, -1), store.sensing_matrix, 3)[0]
        fresh = nearest_indices(query.reshape(1, -1), np.vstack(rows), 3)[0]
        assert np.array_equal(cached, fresh)
        expected = store.importance_matrix[fresh].mean(axis=0)
        assert np.allclose(store.knn_importance(query, k=3), expected)

    def test_version_and_subscribers(self, rng):
        store = EnvironmentStore()
        events = []
        store.subscribe(lambda: events.append(store.version))
        assert store.version == 0
        store.add(rng.normal(size=3), rng.random(5))
        store.add(rng.normal(size=3), rng.random(5))
        assert store.version == 2
        assert events == [1, 2]


class TestTrainingGolden:
    """Trained agents are pinned bitwise (``golden/make_crl_golden.py``).

    The digests were recorded when a training round could also fan its
    agents out over worker processes (that path gave the same digests);
    every round now trains in-process in one lockstep pass.
    """

    @pytest.fixture(scope="class")
    def cases(self):
        spec = importlib.util.spec_from_file_location(
            "repro_tests_make_crl_golden", GOLDEN_DIR / "make_crl_golden.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.run_cases()

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((GOLDEN_DIR / "crl_golden.json").read_text(encoding="utf-8"))

    def test_offline_fit_matches_golden(self, cases, golden):
        assert cases["offline_fit"] == golden["offline_fit"]

    def test_online_warm_matches_golden(self, cases, golden):
        assert cases["online_warm"] == golden["online_warm"]


class TestFit:
    def test_fit_trains_stacked_in_process(self, geometry, store, monkeypatch):
        """A fit is one in-process lockstep pass: no worker pool, nothing
        published to shared memory."""
        environments, *_ = store
        calls = []

        def recording_stacked(tasks):
            calls.append(len(tasks))
            return train_allocation_agents_stacked(tasks)

        monkeypatch.setattr(crl_module, "train_allocation_agents_stacked", recording_stacked)
        shared = get_shared_store()
        blocks_before = len(shared)
        spinups = get_worker_pool().spinups
        model = CRLModel(
            geometry,
            n_clusters=2,
            episodes=15,
            dqn_config=DQNConfig(hidden_sizes=(16,)),
            seed=0,
        ).fit(environments)
        assert calls == [len(model._cluster_agents)] == [2]
        assert len(shared) == blocks_before
        assert get_worker_pool().spinups == spinups


class TestOnlineWarming:
    def _online_model(self, geometry, **kwargs):
        defaults = dict(
            mode="online",
            knn_k=3,
            episodes=15,
            dqn_config=DQNConfig(hidden_sizes=(16,)),
            seed=0,
        )
        defaults.update(kwargs)
        return CRLModel(geometry, **defaults)

    def test_warm_requires_online_mode(self, geometry, store):
        environments, *_ = store
        model = CRLModel(geometry, episodes=5, seed=0).fit(environments)
        with pytest.raises(ConfigurationError):
            model.warm_online_agents([np.zeros(4)])

    def test_warm_requires_fit(self, geometry):
        with pytest.raises(NotFittedError):
            self._online_model(geometry).warm_online_agents([np.zeros(4)])

    def test_warmed_agents_match_lazy(self, geometry, store):
        """Warming must consume the exact RNG stream of serial lazy training."""
        environments, *_ = store
        queries = [np.zeros(4), np.full(4, 8.0), np.full(4, 0.1)]
        lazy = self._online_model(geometry).fit(environments)
        lazy_allocations = [lazy.allocate(query).matrix for query in queries]

        warmed = self._online_model(geometry).fit(environments)
        trained = warmed.warm_online_agents(queries)
        assert trained == len(warmed._online_agents) >= 1
        assert set(warmed._online_agents) == set(lazy._online_agents)
        for key, agent in warmed._online_agents.items():
            reference = lazy._online_agents[key]
            for ours, theirs in zip(agent.online.weights, reference.online.weights):
                assert np.array_equal(ours, theirs)
            for ours, theirs in zip(agent.online.biases, reference.online.biases):
                assert np.array_equal(ours, theirs)

        # Everything is cached now: allocating must not train new agents
        # and must reproduce the lazy allocations exactly.
        agents_before = dict(warmed._online_agents)
        warm_allocations = [warmed.allocate(query).matrix for query in queries]
        assert warmed._online_agents == agents_before
        for ours, theirs in zip(warm_allocations, lazy_allocations):
            assert np.array_equal(ours, theirs)

    def test_warm_skips_present_and_duplicate_keys(self, geometry, store):
        environments, *_ = store
        model = self._online_model(geometry).fit(environments)
        first = model.warm_online_agents([np.zeros(4), np.zeros(4) + 1e-9])
        assert first >= 1
        assert model.warm_online_agents([np.zeros(4)]) == 0


class TestStackedTraining:
    def test_stacked_matches_per_agent_training(self, geometry, rng):
        """One lockstep pass trains exactly the agents a per-task loop does."""
        config = DQNConfig(hidden_sizes=(16,))
        tasks = [
            AgentTrainTask(
                geometry=geometry,
                importance=np.abs(rng.normal(size=8)),
                dqn_config=config,
                episodes=12,
                seed=seed,
            )
            for seed in (3, 17, 29)
        ]
        stacked = train_allocation_agents_stacked(tasks)
        per_agent = [train_allocation_agent(task) for task in tasks]
        assert [_agent_state(a) for a in stacked] == [_agent_state(a) for a in per_agent]


class TestMetricsPreRegistration:
    def test_families_present_at_construction(self, geometry):
        """A fresh CRLModel pre-registers its metric families so scrapes
        show them at zero before the first training/allocation event."""
        from repro.telemetry import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            CRLModel(
                geometry,
                n_clusters=2,
                episodes=5,
                dqn_config=DQNConfig(hidden_sizes=(16,)),
                seed=0,
            )
        families = {family.name: family for family in registry.families()}
        for name in (
            "repro_rl_crl_agents_trained_total",
            "repro_rl_crl_rollouts_total",
            "repro_rl_crl_allocations_total",
            "repro_rl_crl_knn_lookups_total",
            "repro_rl_crl_knn_lookup_seconds",
        ):
            assert name in families
        child = families["repro_rl_crl_rollouts_total"].children[
            (("mode", "offline"),)
        ]
        assert child.value == 0.0
