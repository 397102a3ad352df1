import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv
from repro.rl.replay import Transition
from repro.tatim.exact import branch_and_bound
from repro.tatim.generators import random_instance


@pytest.fixture
def small_env():
    return AllocationEnv(random_instance(6, 2, seed=5))


class TestConfig:
    def test_defaults_valid(self):
        DQNConfig()

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(gamma=2.0)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ConfigurationError):
            DQNConfig(hidden_sizes=())


class TestActing:
    def test_act_respects_feasible_mask(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        state = small_env.reset()
        feasible = np.array([2, 5])
        for _ in range(20):
            assert agent.act(state, feasible) in feasible

    def test_greedy_act_deterministic(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        state = small_env.reset()
        feasible = small_env.feasible_actions()
        picks = {agent.act(state, feasible, greedy=True) for _ in range(5)}
        assert len(picks) == 1

    def test_no_feasible_actions_raises(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        with pytest.raises(ConfigurationError):
            agent.act(small_env.reset(), np.array([], dtype=int))


class TestTraining:
    def test_warmup_returns_none(self, small_env):
        agent = DQNAgent(
            small_env.state_dim,
            small_env.n_actions,
            DQNConfig(warmup_transitions=1000),
            seed=0,
        )
        agent.train_episode(small_env)
        assert agent.train_step() is None

    def test_epsilon_decays(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        start = agent.epsilon
        agent.train(small_env, 10)
        assert agent.epsilon < start

    def test_solve_is_feasible(self, small_env):
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, seed=0)
        agent.train(small_env, 30)
        allocation = agent.solve(small_env)
        assert allocation.is_feasible(small_env.problem)

    def test_reaches_optimum_on_small_instance(self):
        """DQN with masking recovers the exact optimum on a small TATIM."""
        problem = random_instance(8, 2, seed=5)
        env = AllocationEnv(problem)
        agent = DQNAgent(
            env.state_dim,
            env.n_actions,
            DQNConfig(hidden_sizes=(64, 32), warmup_transitions=100),
            seed=0,
        )
        agent.train(env, 400)
        learned = agent.solve(env).objective(problem)
        optimal = branch_and_bound(problem).objective(problem)
        assert learned >= 0.9 * optimal

    def test_masked_q_blocks_infeasible_backup(self, small_env):
        """Infeasible actions never contribute to the Bellman max."""
        config = DQNConfig(hidden_sizes=(8,), batch_size=1, warmup_transitions=1, gamma=1.0)
        agent = DQNAgent(small_env.state_dim, small_env.n_actions, config, seed=0)
        state = small_env.reset()
        agent.buffer.push(
            Transition(
                state=state,
                action=0,
                reward=0.0,
                next_state=state,
                done=False,
                next_feasible=np.array([1]),
            )
        )
        batch = agent.buffer.sample_batch(1)
        assert batch.feasible_mask[0].tolist() == [
            action == 1 for action in range(small_env.n_actions)
        ]
        # Make action 0 the unmasked argmax at s', then check the target
        # the step regresses Q(s, 0) onto is Q_target(s', 1), not the max.
        target_q = agent.target.forward(state.reshape(1, -1)).ravel()
        agent.target.biases[-1][0] += target_q.max() - target_q.min() + 100.0
        target_q = agent.target.forward(state.reshape(1, -1)).ravel()
        assert int(target_q.argmax()) == 0
        captured = {}
        train_from_cache = agent.online.train_from_cache

        def capture(targets):
            captured["targets"] = targets.copy()
            return train_from_cache(targets)

        agent.online.train_from_cache = capture
        agent.train_step()
        assert captured["targets"][0, 0] == target_q[1]
