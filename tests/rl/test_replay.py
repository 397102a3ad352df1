import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer, Transition


def make_transition(reward=1.0):
    return Transition(
        state=np.zeros(3),
        action=0,
        reward=reward,
        next_state=np.ones(3),
        done=False,
        next_feasible=np.array([0, 1]),
    )


class TestReplayBuffer:
    def test_push_and_len(self):
        buffer = ReplayBuffer(capacity=10, n_actions=2)
        for _ in range(5):
            buffer.push(make_transition())
        assert len(buffer) == 5

    def test_capacity_ring_overwrites_oldest(self):
        buffer = ReplayBuffer(capacity=3, n_actions=2)
        for reward in range(5):
            buffer.push(make_transition(reward=float(reward)))
        assert len(buffer) == 3
        rewards = set(buffer.sample_batch(100).rewards.tolist())
        assert 0.0 not in rewards and 1.0 not in rewards

    def test_sample_from_empty_raises(self):
        with pytest.raises(DataError):
            ReplayBuffer(n_actions=2).sample_batch(1)

    def test_sample_size_clamped(self):
        buffer = ReplayBuffer(n_actions=2)
        buffer.push(make_transition())
        assert len(buffer.sample_batch(32)) == 1

    def test_n_actions_required_and_positive(self):
        with pytest.raises(TypeError):
            ReplayBuffer(capacity=10)
        for n_actions in (0, -1):
            with pytest.raises(ConfigurationError):
                ReplayBuffer(capacity=10, n_actions=n_actions)
            with pytest.raises(ConfigurationError):
                PrioritizedReplayBuffer(capacity=10, n_actions=n_actions)

    def test_feasible_indices_stored_as_mask(self):
        buffer = ReplayBuffer(n_actions=4, seed=0)
        buffer.push(make_transition())
        assert buffer.sample_batch(1).feasible_mask.tolist() == [[True, True, False, False]]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(capacity=0, n_actions=2)

    def test_invalid_batch_size(self):
        buffer = ReplayBuffer(n_actions=2)
        buffer.push(make_transition())
        with pytest.raises(ConfigurationError):
            buffer.sample_batch(0)

    def test_clear(self):
        buffer = ReplayBuffer(n_actions=2)
        buffer.push(make_transition())
        buffer.clear()
        assert len(buffer) == 0

    def test_sample_without_replacement(self):
        """Regression: a batch must never double-count a transition."""
        buffer = ReplayBuffer(n_actions=2, seed=0)
        for reward in range(20):
            buffer.push(make_transition(float(reward)))
        for _ in range(50):
            rewards = buffer.sample_batch(10).rewards.tolist()
            assert len(rewards) == len(set(rewards)) == 10

    def test_full_buffer_sample_is_permutation(self):
        buffer = ReplayBuffer(n_actions=2, seed=0)
        for reward in range(8):
            buffer.push(make_transition(float(reward)))
        rewards = sorted(buffer.sample_batch(100).rewards.tolist())
        assert rewards == [float(r) for r in range(8)]

    def test_sampling_deterministic_given_seed(self):
        a = ReplayBuffer(n_actions=2, seed=1)
        b = ReplayBuffer(n_actions=2, seed=1)
        for reward in range(10):
            a.push(make_transition(float(reward)))
            b.push(make_transition(float(reward)))
        assert np.array_equal(a.sample_batch(5).rewards, b.sample_batch(5).rewards)
