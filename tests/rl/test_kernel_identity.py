"""Byte-identity contract tests for the single-process RL kernels.

The incremental environment buffer, the structure-of-arrays replay, and
the fused forward/backward path are *data-layout* optimizations: same
seeds must produce the same RNG stream and the same IEEE-754 arithmetic
in the same order as the straightforward implementations they replaced.
Three layers of evidence:

- a property test replaying random valid action sequences and comparing
  the incremental state buffer and feasibility set against a
  from-scratch rebuild after every step;
- a parity test driving the SoA-backed buffers and a minimal list-backed
  reference with the same RNG, comparing sampled batches element for
  element;
- a golden test re-running full DQN trainings (uniform, double-Q,
  prioritized) and comparing per-episode returns bitwise (IEEE-754 hex),
  final greedy allocations, and a SHA-256 over the trained parameters
  against values recorded *before* the kernel refactor.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv, BatchedAllocationEnv, _TOL
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.stacked import LockstepTrainer
from repro.tatim.generators import random_instance

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# ----------------------------------------------------------------------
# Property: incremental state/feasibility == from-scratch rebuild


def _reference_state(env: AllocationEnv) -> np.ndarray:
    """The old concatenating implementation, rebuilt from first principles."""
    problem = env.problem
    onehot = np.zeros(env.n_processors)
    if not env.done:
        onehot[env._current] = 1.0
    return np.concatenate(
        [
            (env._assigned >= 0).astype(float),
            problem.importance / env._importance_scale,
            problem.times / float(env._limits.mean()),
            problem.resources / float(problem.capacities.mean()),
            onehot,
            env._remaining_time / env._limits,
            env._remaining_capacity / env._capacities,
        ]
    )


def _reference_feasible(env: AllocationEnv) -> np.ndarray:
    """Full rescan, as the pre-incremental implementation did every call."""
    if env.done:
        return np.array([], dtype=int)
    current = env._current
    fits = (
        (env._assigned < 0)
        & (env.problem.times <= env._remaining_time[current] + _TOL)
        & (env.problem.resources <= env._remaining_capacity[current] + _TOL)
    )
    return np.append(np.flatnonzero(fits), env.close_action)


@settings(max_examples=25, deadline=None)
@given(
    instance_seed=st.integers(0, 2**16),
    policy_seed=st.integers(0, 2**16),
    dense=st.booleans(),
)
def test_incremental_state_matches_rebuild(instance_seed, policy_seed, dense):
    """After every step of a random valid episode, the incremental buffer
    and candidate set must equal a from-scratch rebuild, bit for bit."""
    problem = random_instance(10, 3, seed=instance_seed)
    env = AllocationEnv(problem, dense_reward=dense)
    rng = np.random.default_rng(policy_seed)
    state = env.reset()
    assert np.array_equal(state, _reference_state(env))
    assert np.array_equal(env.feasible_actions(), _reference_feasible(env))
    while not env.done:
        action = int(rng.choice(env.feasible_actions()))
        state, _, _, _ = env.step(action)
        assert np.array_equal(state, _reference_state(env))
        assert np.array_equal(env.feasible_actions(), _reference_feasible(env))


# ----------------------------------------------------------------------
# Parity: SoA buffers == the list-backed reference, same RNG stream


class _ListReplay:
    """The pre-SoA reference: a transition list plus a ring cursor."""

    def __init__(self, capacity: int, seed: int) -> None:
        self.capacity = capacity
        self._storage: list[Transition] = []
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int) -> list[Transition]:
        n = len(self._storage)
        if n > batch_size:
            indices = self._rng.choice(n, size=batch_size, replace=False)
        else:
            indices = self._rng.permutation(n)
        return [self._storage[int(i)] for i in indices]


def _random_transitions(seed: int, count: int, state_dim=6, n_actions=5):
    rng = np.random.default_rng(seed)
    return [
        Transition(
            state=rng.normal(size=state_dim),
            action=int(rng.integers(n_actions)),
            reward=float(rng.normal()),
            next_state=rng.normal(size=state_dim),
            done=bool(rng.random() < 0.1),
            next_feasible=np.flatnonzero(rng.random(n_actions) < 0.6),
        )
        for _ in range(count)
    ]


def _assert_batch_matches(batch, reference: list) -> None:
    """A sampled column batch holds exactly the reference transitions."""
    assert len(batch) == len(reference)
    assert np.array_equal(batch.states, np.stack([t.state for t in reference]))
    assert np.array_equal(batch.actions, [t.action for t in reference])
    assert np.array_equal(batch.rewards, [t.reward for t in reference])
    assert np.array_equal(batch.next_states, np.stack([t.next_state for t in reference]))
    assert np.array_equal(batch.dones, [t.done for t in reference])
    for row, t in zip(batch.feasible_mask, reference):
        assert np.array_equal(np.flatnonzero(row), np.sort(t.next_feasible))


@pytest.mark.parametrize(
    "capacity,pushes",
    [(128, 300), (1000, 600)],  # ring wrap-around / lazy column growth
)
def test_soa_sample_matches_list_backed(capacity, pushes):
    """sample_batch consumes the RNG like the list-backed reference and
    returns its rows, columnized, with each feasible-index list as a mask."""
    soa = ReplayBuffer(capacity, n_actions=5, seed=42)
    reference = _ListReplay(capacity, seed=42)
    for transition in _random_transitions(3, pushes):
        soa.push(transition)
        reference.push(transition)
    assert len(soa) == len(reference)
    for _ in range(10):
        _assert_batch_matches(soa.sample_batch(32), reference.sample(32))


def test_prioritized_sample_entry_points_agree():
    """Prioritized sample_batch returns the rows at the recorded sample
    indices, and the same seed draws the same rows and IS weights under
    the same priority updates."""
    pushed = _random_transitions(5, 120)
    first = PrioritizedReplayBuffer(256, n_actions=5, seed=7)
    second = PrioritizedReplayBuffer(256, n_actions=5, seed=7)
    for transition in pushed:
        first.push(transition)
        second.push(transition)
    errors_rng = np.random.default_rng(11)
    for _ in range(6):
        batch = first.sample_batch(16)
        again = second.sample_batch(16)
        assert np.array_equal(first._last_indices, second._last_indices)
        assert np.array_equal(first.last_sample_weights(), second.last_sample_weights())
        _assert_batch_matches(batch, [pushed[int(i)] for i in first._last_indices])
        _assert_batch_matches(again, [pushed[int(i)] for i in first._last_indices])
        errors = errors_rng.normal(size=16)
        first.update_priorities(errors)
        second.update_priorities(errors)


# ----------------------------------------------------------------------
# Golden: full DQN trainings bitwise vs pre-refactor recordings


def _load_make_goldens():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_make_goldens", GOLDEN_DIR / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "case,kwargs",
    [
        ("uniform", {}),
        ("double_q", {"double_q": True}),
        ("prioritized", {"prioritized": True}),
    ],
)
def test_dqn_training_matches_pre_refactor_golden(case, kwargs):
    golden = json.loads((GOLDEN_DIR / "dqn_golden.json").read_text(encoding="utf-8"))
    module = _load_make_goldens()
    result = module.run_case(case, **kwargs)
    assert result["returns_hex"] == golden[case]["returns_hex"]
    assert result["assignment"] == golden[case]["assignment"]
    assert result["online_params_sha256"] == golden[case]["online_params_sha256"]
    assert result["final_epsilon_hex"] == golden[case]["final_epsilon_hex"]


def test_lockstep_training_matches_golden():
    """The stacked tier: cross-agent lockstep training and batched greedy
    rollouts pinned bitwise against the recorded (serial-verified) run."""
    golden = json.loads((GOLDEN_DIR / "dqn_golden.json").read_text(encoding="utf-8"))
    result = _load_make_goldens().run_stacked_case()
    assert result == golden["stacked"]


# ----------------------------------------------------------------------
# Property: batched multi-episode env == per-episode serial envs


@settings(max_examples=15, deadline=None)
@given(
    instance_seed=st.integers(0, 2**16),
    policy_seed=st.integers(0, 2**16),
    n_envs=st.integers(2, 5),
)
def test_batched_env_matches_serial_envs(instance_seed, policy_seed, n_envs):
    """Stepping N episodes through one BatchedAllocationEnv must equal
    stepping N independent AllocationEnvs with the same actions — states,
    feasibility, rewards, dones and final allocations, bit for bit."""
    rng = np.random.default_rng(policy_seed)
    base = random_instance(8, 3, seed=instance_seed)
    problems = [
        base.scaled(importance=rng.uniform(0.1, 1.0, base.n_tasks))
        for _ in range(n_envs)
    ]
    serial = [AllocationEnv(problem) for problem in problems]
    for env in serial:
        env.reset()
    batch = BatchedAllocationEnv(problems)
    while True:
        rows = np.flatnonzero(~batch.done_mask)
        assert np.array_equal(rows, np.flatnonzero([not e.done for e in serial]))
        if rows.size == 0:
            break
        for a in rows:
            assert np.array_equal(batch.states[a], serial[a].state_vector())
            assert np.array_equal(batch.feasible_row(a), serial[a].feasible_actions())
        actions = np.array(
            [int(rng.choice(batch.feasible_row(a))) for a in rows], dtype=int
        )
        rewards, dones = batch.step(actions, rows=rows)
        for j, a in enumerate(rows):
            _, reward, done, _ = serial[a].step(int(actions[j]))
            assert float(rewards[j]) == reward
            assert bool(dones[j]) == done
    for a, env in enumerate(serial):
        assert batch.allocation(a).as_assignment() == env.allocation().as_assignment()


# ----------------------------------------------------------------------
# Property: batched greedy rollouts == sequential solve


@settings(max_examples=10, deadline=None)
@given(
    instance_seed=st.integers(0, 2**16),
    agent_seed=st.integers(0, 2**16),
    n_envs=st.integers(1, 6),
)
def test_solve_greedy_batch_matches_sequential_solve(instance_seed, agent_seed, n_envs):
    base = random_instance(8, 3, seed=instance_seed)
    env = AllocationEnv(base)
    agent = DQNAgent(
        env.state_dim,
        env.n_actions,
        DQNConfig(hidden_sizes=(16,), batch_size=8, warmup_transitions=16),
        seed=agent_seed,
    )
    for _ in range(2):  # nontrivial Q-values; rollouts themselves are RNG-free
        agent.train_episode(env)
    rng = np.random.default_rng(instance_seed + 1)
    problems = [
        base.scaled(importance=rng.uniform(0.1, 1.0, base.n_tasks))
        for _ in range(n_envs)
    ]
    serial = [agent.solve(AllocationEnv(problem)) for problem in problems]
    batched = agent.solve_greedy_batch([AllocationEnv(problem) for problem in problems])
    assert len(batched) == len(serial)
    for a, b in zip(serial, batched):
        assert np.array_equal(a.matrix, b.matrix)
        assert a.as_assignment() == b.as_assignment()


# ----------------------------------------------------------------------
# Property: lockstep multi-agent training == per-agent serial training


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_agents=st.integers(2, 4),
    heterogeneous=st.booleans(),
)
def test_lockstep_training_matches_serial(seed, n_agents, heterogeneous):
    """Interleaving independent agents' steps (with the fused cross-agent
    kernels when configs allow, the per-agent fallback when they don't)
    must not change any agent's arithmetic: returns, parameters, target
    nets, ε and step counters all match serial training bitwise."""
    module = _load_make_goldens()
    problems = [random_instance(8, 3, seed=seed + i) for i in range(n_agents)]

    def make_agents():
        agents = []
        for i, problem in enumerate(problems):
            env = AllocationEnv(problem)
            config = DQNConfig(
                hidden_sizes=(16,),
                batch_size=8,
                warmup_transitions=16,
                target_sync_every=25,
                # Heterogeneous configs defeat the fused step, exercising
                # the per-agent fallback inside the same lockstep loop.
                double_q=heterogeneous and i % 2 == 0,
            )
            agents.append(
                DQNAgent(env.state_dim, env.n_actions, config, seed=seed + 50 + i)
            )
        return agents

    serial_agents = make_agents()
    serial_returns = [
        agent.train(AllocationEnv(problem), 5)
        for agent, problem in zip(serial_agents, problems)
    ]
    lockstep_agents = make_agents()
    lockstep_returns = LockstepTrainer(lockstep_agents, problems, episodes=5).train()
    for expected, actual in zip(serial_returns, lockstep_returns):
        assert [float(r).hex() for r in expected] == [float(r).hex() for r in actual]
    for expected, actual in zip(serial_agents, lockstep_agents):
        assert module.parameters_sha256(actual.online) == module.parameters_sha256(
            expected.online
        )
        assert module.parameters_sha256(actual.target) == module.parameters_sha256(
            expected.target
        )
        assert float(actual.epsilon).hex() == float(expected.epsilon).hex()
        assert actual._steps == expected._steps
        assert actual._episodes == expected._episodes


# ----------------------------------------------------------------------
# Parity: column-direct pushes and in-place batch gathers


def test_push_columns_matches_transition_push():
    """push_columns (the lockstep trainer's write path) must land sampled
    batches byte-identical to pushing the equivalent Transition."""
    n_actions = 5
    via_transitions = ReplayBuffer(64, n_actions=n_actions, seed=13)
    via_columns = ReplayBuffer(64, n_actions=n_actions, seed=13)
    for t in _random_transitions(6, 150, n_actions=n_actions):
        via_transitions.push(t)
        mask = np.zeros(n_actions, dtype=bool)
        mask[t.next_feasible] = True
        via_columns.push_columns(
            t.state, t.action, t.reward, t.next_state, t.done, mask
        )
    assert len(via_columns) == len(via_transitions)
    for _ in range(8):
        expected = via_transitions.sample_batch(32)
        actual = via_columns.sample_batch(32)
        assert np.array_equal(actual.states, expected.states)
        assert np.array_equal(actual.actions, expected.actions)
        assert np.array_equal(actual.rewards, expected.rewards)
        assert np.array_equal(actual.next_states, expected.next_states)
        assert np.array_equal(actual.dones, expected.dones)
        assert np.array_equal(actual.feasible_mask, expected.feasible_mask)


def test_sample_batch_into_matches_sample_batch():
    """The preallocated-buffer gather must consume the RNG and land the
    rows exactly like sample_batch."""
    state_dim, n_actions = 6, 5
    reference = ReplayBuffer(128, n_actions=n_actions, seed=21)
    into = ReplayBuffer(128, n_actions=n_actions, seed=21)
    for t in _random_transitions(8, 200, state_dim=state_dim, n_actions=n_actions):
        reference.push(t)
        into.push(t)
    out = (
        np.empty((32, state_dim)),
        np.empty(32, dtype=int),
        np.empty(32),
        np.empty((32, state_dim)),
        np.empty(32, dtype=bool),
        np.empty((32, n_actions), dtype=bool),
    )
    for _ in range(6):
        expected = reference.sample_batch(32)
        into.sample_batch_into(32, out)
        states, actions, rewards, next_states, dones, feasible = out
        assert np.array_equal(states, expected.states)
        assert np.array_equal(actions, expected.actions)
        assert np.array_equal(rewards, expected.rewards)
        assert np.array_equal(next_states, expected.next_states)
        assert np.array_equal(dones, expected.dones)
        assert np.array_equal(feasible, expected.feasible_mask)
