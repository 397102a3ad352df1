import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.rl.env import AllocationEnv
from repro.tatim.generators import random_instance


@pytest.fixture
def env(tiny_problem):
    return AllocationEnv(tiny_problem)


class TestGeometry:
    def test_action_space_linear_in_tasks(self, env, tiny_problem):
        """The paper's trick: |A| = N + 1, not 2^(N*M)."""
        assert env.n_actions == tiny_problem.n_tasks + 1

    def test_state_dim_fixed(self, env, tiny_problem):
        expected = 4 * tiny_problem.n_tasks + 3 * tiny_problem.n_processors
        assert env.state_dim == expected
        assert env.reset().shape == (expected,)


class TestEpisode:
    def test_reset_clears_state(self, env):
        env.step(env.feasible_actions()[0])
        state = env.reset()
        assert not env.done
        assert env.total_importance() == 0.0
        assert state.shape == (env.state_dim,)

    def test_close_all_processors_terminates(self, env, tiny_problem):
        env.reset()
        reward_total = 0.0
        for _ in range(tiny_problem.n_processors):
            _, reward, done, _ = env.step(env.close_action)
            reward_total += reward
        assert done
        assert reward_total == 0.0  # nothing allocated

    def test_terminal_reward_is_total_importance(self, env, tiny_problem):
        env.reset()
        first_task = int(env.feasible_actions()[0])
        env.step(first_task)
        rewards = []
        while not env.done:
            _, reward, _, _ = env.step(env.close_action)
            rewards.append(reward)
        assert rewards[-1] == pytest.approx(tiny_problem.importance[first_task])
        assert all(r == 0.0 for r in rewards[:-1])

    def test_dense_reward_mode(self, tiny_problem):
        env = AllocationEnv(tiny_problem, dense_reward=True)
        task = int(env.feasible_actions()[0])
        _, reward, _, _ = env.step(task)
        assert reward == pytest.approx(tiny_problem.importance[task])

    def test_step_after_done_raises(self, env, tiny_problem):
        env.reset()
        for _ in range(tiny_problem.n_processors):
            env.step(env.close_action)
        with pytest.raises(SimulationError):
            env.step(env.close_action)

    def test_double_assignment_raises(self, env):
        env.reset()
        task = int(env.feasible_actions()[0])
        env.step(task)
        with pytest.raises(SimulationError):
            env.step(task)

    def test_out_of_range_action_raises(self, env):
        with pytest.raises(ConfigurationError):
            env.step(999)


class TestFeasibility:
    def test_feasible_actions_always_include_close(self, env):
        env.reset()
        assert env.close_action in env.feasible_actions()

    def test_feasible_tasks_actually_fit(self, env, tiny_problem):
        env.reset()
        for action in env.feasible_actions():
            if action == env.close_action:
                continue
            assert tiny_problem.times[action] <= tiny_problem.time_limit
            assert tiny_problem.resources[action] <= tiny_problem.capacities[0]

    def test_random_feasible_rollout_yields_feasible_allocation(self, rng):
        """Any rollout of feasible actions produces a valid allocation."""
        for seed in range(5):
            problem = random_instance(10, 3, seed=seed)
            env = AllocationEnv(problem)
            env.reset()
            while not env.done:
                action = rng.choice(env.feasible_actions())
                env.step(int(action))
            allocation = env.allocation()
            assert allocation.is_feasible(problem)

    def test_dense_rewards_sum_to_terminal_reward(self, rng, tiny_problem):
        """Reward-design invariant: for the same action sequence, the dense
        mode's summed rewards equal the terminal mode's final reward."""
        terminal_env = AllocationEnv(tiny_problem, dense_reward=False)
        dense_env = AllocationEnv(tiny_problem, dense_reward=True)
        terminal_env.reset()
        dense_env.reset()
        terminal_total = 0.0
        dense_total = 0.0
        while not terminal_env.done:
            action = int(rng.choice(terminal_env.feasible_actions()))
            _, r1, _, _ = terminal_env.step(action)
            _, r2, _, _ = dense_env.step(action)
            terminal_total += r1
            dense_total += r2
        assert dense_total == pytest.approx(terminal_total)

    def test_allocation_matches_terminal_importance(self, rng, tiny_problem):
        env = AllocationEnv(tiny_problem)
        env.reset()
        while not env.done:
            env.step(int(rng.choice(env.feasible_actions())))
        allocation = env.allocation()
        assert allocation.objective(tiny_problem) == pytest.approx(env.total_importance())


class TestAgainstBruteForce:
    """The MDP against an oracle that recomputes budgets from scratch each step."""

    #: Same feasibility slack as the environment and the solvers.
    TOL = 1e-12

    @given(
        n_tasks=st.integers(1, 7),
        n_processors=st.integers(1, 3),
        tightness=st.floats(0.1, 1.0),
        correlation=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_rollout_matches_oracle(
        self, n_tasks, n_processors, tightness, correlation, seed
    ):
        problem = random_instance(
            n_tasks, n_processors, tightness=tightness, correlation=correlation, seed=seed
        )
        limits = problem.processor_time_limits()
        env = AllocationEnv(problem)
        env.reset()
        rng = np.random.default_rng(seed)
        assigned: dict[int, int] = {}
        current = 0
        rewards = []
        while not env.done:
            on_current = [task for task, proc in assigned.items() if proc == current]
            time_left = limits[current] - problem.times[on_current].sum()
            capacity_left = problem.capacities[current] - problem.resources[on_current].sum()
            fits = [
                task
                for task in range(n_tasks)
                if task not in assigned
                and problem.times[task] <= time_left + self.TOL
                and problem.resources[task] <= capacity_left + self.TOL
            ]
            feasible = env.feasible_actions()
            assert list(feasible) == fits + [env.close_action]
            for task in fits:
                # No masked-legal action overflows a budget.
                assert problem.times[on_current + [task]].sum() <= limits[current] + 1e-9
                assert (
                    problem.resources[on_current + [task]].sum()
                    <= problem.capacities[current] + 1e-9
                )
            action = int(rng.choice(feasible))
            _, reward, _, _ = env.step(action)
            rewards.append(reward)
            if action == env.close_action:
                current += 1
            else:
                assigned[action] = current
        assert current == n_processors
        assert all(reward == 0.0 for reward in rewards[:-1])
        # The terminal reward is the TATIM objective: Σ I_j over allocated tasks.
        assert rewards[-1] == float(problem.importance[sorted(assigned)].sum())
        assert env.allocation().is_feasible(problem)
