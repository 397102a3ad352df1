import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import Transition
from repro.tatim.exact import branch_and_bound
from repro.tatim.generators import random_instance


def make_transition(reward=0.0):
    return Transition(
        state=np.zeros(3),
        action=0,
        reward=reward,
        next_state=np.ones(3),
        done=False,
        next_feasible=np.array([0]),
    )


class TestPrioritizedBuffer:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PrioritizedReplayBuffer(capacity=0, n_actions=1)
        with pytest.raises(ConfigurationError):
            PrioritizedReplayBuffer(alpha=2.0, n_actions=1)
        with pytest.raises(ConfigurationError):
            PrioritizedReplayBuffer(beta=-0.1, n_actions=1)
        with pytest.raises(ConfigurationError):
            PrioritizedReplayBuffer(epsilon=0.0, n_actions=1)

    def test_push_and_ring(self):
        buffer = PrioritizedReplayBuffer(capacity=3, n_actions=1, seed=0)
        for reward in range(5):
            buffer.push(make_transition(float(reward)))
        assert len(buffer) == 3

    def test_sample_before_push_rejected(self):
        with pytest.raises(DataError):
            PrioritizedReplayBuffer(n_actions=1).sample_batch(1)

    def test_high_priority_sampled_more(self):
        buffer = PrioritizedReplayBuffer(capacity=10, alpha=1.0, n_actions=1, seed=0)
        for reward in range(10):
            buffer.push(make_transition(float(reward)))
        # Give transition 0 overwhelming priority.
        buffer.sample_batch(10)
        errors = np.full(len(buffer._last_indices), 1e-6)
        buffer.update_priorities(errors)
        buffer._priorities[0] = 1000.0
        counts = np.zeros(10)
        for _ in range(200):
            buffer.sample_batch(1)
            counts[int(buffer._last_indices[0])] += 1
        assert counts[0] > 150

    def test_weights_normalized(self):
        buffer = PrioritizedReplayBuffer(capacity=5, n_actions=1, seed=0)
        for _ in range(5):
            buffer.push(make_transition())
        buffer.sample_batch(3)
        weights = buffer.last_sample_weights()
        assert weights.max() == pytest.approx(1.0)
        assert np.all(weights > 0)

    def test_update_before_sample_rejected(self):
        buffer = PrioritizedReplayBuffer(n_actions=1)
        buffer.push(make_transition())
        with pytest.raises(DataError):
            buffer.update_priorities(np.array([1.0]))

    def test_update_length_mismatch(self):
        buffer = PrioritizedReplayBuffer(n_actions=1, seed=0)
        for _ in range(4):
            buffer.push(make_transition())
        buffer.sample_batch(2)
        with pytest.raises(DataError):
            buffer.update_priorities(np.ones(5))

    def test_clear(self):
        buffer = PrioritizedReplayBuffer(n_actions=1)
        buffer.push(make_transition())
        buffer.clear()
        assert len(buffer) == 0


class TestDQNWithPrioritizedReplay:
    def test_agent_trains_and_solves(self):
        problem = random_instance(8, 2, seed=5)
        env = AllocationEnv(problem)
        agent = DQNAgent(
            env.state_dim,
            env.n_actions,
            DQNConfig(hidden_sizes=(64, 32), warmup_transitions=100),
            buffer=PrioritizedReplayBuffer(capacity=20_000, n_actions=env.n_actions, seed=0),
            seed=0,
        )
        agent.train(env, 300)
        learned = agent.solve(env).objective(problem)
        optimal = branch_and_bound(problem).objective(problem)
        assert agent.solve(env).is_feasible(problem)
        assert learned >= 0.8 * optimal

    def test_priorities_actually_updated_during_training(self):
        problem = random_instance(6, 2, seed=1)
        env = AllocationEnv(problem)
        buffer = PrioritizedReplayBuffer(capacity=1000, n_actions=env.n_actions, seed=0)
        agent = DQNAgent(
            env.state_dim,
            env.n_actions,
            DQNConfig(hidden_sizes=(16,), warmup_transitions=20),
            buffer=buffer,
            seed=0,
        )
        agent.train(env, 30)
        priorities = np.asarray(buffer._priorities)
        assert priorities.std() > 0.0  # no longer all at the initial max
