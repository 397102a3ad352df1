"""Replay rows stored around an environment's fixed block.

A buffer bound to an environment's fixed geometry block stores only the
columns a step can change; every gather must splice the block back in
and return bit-for-bit the rows that were pushed, through both gather
entry points, for the uniform and the prioritized buffer, across ring
wrap-around. An unbound buffer keeps full rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.rl.crl import AgentTrainTask, train_allocation_agent, train_allocation_agents_stacked
from repro.rl.dqn import DQNConfig
from repro.rl.env import AllocationEnv, BatchedAllocationEnv
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer, Transition
from repro.tatim.generators import random_instance

BUFFERS = (ReplayBuffer, PrioritizedReplayBuffer)


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _mask(n_actions: int, feasible: np.ndarray) -> np.ndarray:
    mask = np.zeros(n_actions, dtype=bool)
    mask[feasible] = True
    return mask


def _serial_episodes(problem, episodes: int, rng) -> list[Transition]:
    """Random-policy transitions of ``AllocationEnv(problem)``."""
    env = AllocationEnv(problem)
    transitions = []
    for _ in range(episodes):
        state = env.reset()
        while not env.done:
            action = int(rng.choice(env.feasible_actions()))
            next_state, reward, done, _ = env.step(action)
            transitions.append(
                Transition(state, action, reward, next_state, done, env.feasible_actions())
            )
            state = next_state
    return transitions


def _batched_episodes(env: BatchedAllocationEnv, rng) -> list[list[Transition]]:
    """One random-policy episode per row of ``env``, as per-row transitions."""
    env.reset()
    transitions: list[list[Transition]] = [[] for _ in range(len(env))]
    while not env.done_mask.all():
        rows = np.flatnonzero(~env.done_mask)
        actions = np.array([rng.choice(env.feasible_row(row)) for row in rows])
        states = env.state_rows(rows)
        rewards, dones = env.step(actions, rows=rows)
        for j, row in enumerate(rows):
            transitions[row].append(
                Transition(
                    states[j],
                    int(actions[j]),
                    float(rewards[j]),
                    env.state_row(row),
                    bool(dones[j]),
                    env.feasible_row(row),
                )
            )
    return transitions


def _fill(buffer, transitions) -> list[Transition]:
    """Push every transition; the row each ring slot holds at the end."""
    slots: list[Transition | None] = [None] * buffer.capacity
    for k, t in enumerate(transitions):
        buffer.push(t)
        slots[k % buffer.capacity] = t
    return [t for t in slots if t is not None]


def _assert_gathers_pushed(buffer, held: list[Transition], n_actions: int) -> None:
    storage = buffer._storage
    indices = np.arange(len(held))[::-1].copy()
    expected = [held[i] for i in indices]
    batch = storage.gather_batch(indices)
    dim = held[0].state.size
    out = (
        np.empty((indices.size, dim)),
        np.empty(indices.size, dtype=int),
        np.empty(indices.size),
        np.empty((indices.size, dim)),
        np.empty(indices.size, dtype=bool),
        np.empty((indices.size, n_actions), dtype=bool),
    )
    storage.gather_batch_into(indices, out)
    states, actions, rewards, next_states, dones, feasible = out
    want_states = np.stack([t.state for t in expected])
    want_next = np.stack([t.next_state for t in expected])
    want_mask = np.stack([_mask(n_actions, t.next_feasible) for t in expected])
    for got_states, got_next, got_mask in (
        (batch.states, batch.next_states, batch.feasible_mask),
        (states, next_states, feasible),
    ):
        assert _bitwise(got_states, want_states)
        assert _bitwise(got_next, want_next)
        assert np.array_equal(got_mask, want_mask)
    for got_actions, got_rewards, got_dones in (
        (batch.actions, batch.rewards, batch.dones),
        (actions, rewards, dones),
    ):
        assert got_actions.tolist() == [t.action for t in expected]
        assert _bitwise(got_rewards, np.array([t.reward for t in expected]))
        assert got_dones.tolist() == [t.done for t in expected]


geometries = st.tuples(
    st.integers(1, 8),  # tasks
    st.integers(1, 3),  # processors
    st.integers(0, 2**16),  # instance seed
    st.integers(1, 40),  # capacity: often below the push count, so the ring wraps
)


@settings(max_examples=40, deadline=None)
@given(geometry=geometries, episodes=st.integers(1, 4))
def test_serial_episodes_gather_bitwise(geometry, episodes):
    n_tasks, n_processors, seed, capacity = geometry
    problem = random_instance(n_tasks, n_processors, seed=seed)
    env = AllocationEnv(problem)
    transitions = _serial_episodes(problem, episodes, np.random.default_rng(seed))
    for buffer_type in BUFFERS:
        buffer = buffer_type(capacity, n_actions=env.n_actions, seed=0)
        buffer.bind_fixed_block(*env.fixed_block())
        held = _fill(buffer, transitions)
        _assert_gathers_pushed(buffer, held, env.n_actions)


@settings(max_examples=30, deadline=None)
@given(geometry=geometries, rows=st.integers(1, 3), episodes=st.integers(1, 3))
def test_batched_episodes_gather_bitwise(geometry, rows, episodes):
    n_tasks, n_processors, seed, capacity = geometry
    env = BatchedAllocationEnv(
        [random_instance(n_tasks, n_processors, seed=seed + row) for row in range(rows)]
    )
    rng = np.random.default_rng(seed)
    per_row: list[list[Transition]] = [[] for _ in range(rows)]
    for _ in range(episodes):
        for row, transitions in enumerate(_batched_episodes(env, rng)):
            per_row[row].extend(transitions)
    for row, transitions in enumerate(per_row):
        for buffer_type in BUFFERS:
            buffer = buffer_type(capacity, n_actions=env.n_actions, seed=0)
            buffer.bind_fixed_block(*env.fixed_block(row))
            held = _fill(buffer, transitions)
            _assert_gathers_pushed(buffer, held, env.n_actions)


@pytest.mark.parametrize("buffer_type", BUFFERS)
def test_unbound_buffer_round_trips_arbitrary_rows(buffer_type):
    rng = np.random.default_rng(4)
    transitions = [
        Transition(
            rng.normal(size=7),
            int(rng.integers(0, 3)),
            float(rng.normal()),
            rng.normal(size=7),
            bool(rng.random() < 0.3),
            np.flatnonzero(rng.random(3) < 0.5),
        )
        for _ in range(25)
    ]
    buffer = buffer_type(16, n_actions=3, seed=0)
    held = _fill(buffer, transitions)
    _assert_gathers_pushed(buffer, held, 3)
    assert buffer._storage._states.shape[1] == 7


@pytest.mark.parametrize("buffer_type", BUFFERS)
def test_rebinding_raises(buffer_type):
    first = AllocationEnv(random_instance(5, 2, seed=0))
    other = AllocationEnv(random_instance(5, 2, seed=1))
    buffer = buffer_type(8, n_actions=first.n_actions)
    buffer.bind_fixed_block(*first.fixed_block())
    buffer.bind_fixed_block(*first.fixed_block())  # the bound block again: a no-op
    with pytest.raises(DataError):
        buffer.bind_fixed_block(*other.fixed_block())
    columns, values = first.fixed_block()
    with pytest.raises(DataError):
        buffer.bind_fixed_block(slice(columns.start + 1, columns.stop + 1), values)

    unbound = buffer_type(8, n_actions=first.n_actions)
    unbound.push(_serial_episodes(first.problem, 1, np.random.default_rng(0))[0])
    with pytest.raises(DataError):
        unbound.bind_fixed_block(*first.fixed_block())


def test_push_without_the_bound_block_raises():
    env = AllocationEnv(random_instance(5, 2, seed=0))
    other = random_instance(5, 2, seed=1)
    buffer = ReplayBuffer(8, n_actions=env.n_actions)
    buffer.bind_fixed_block(*env.fixed_block())
    with pytest.raises(DataError):
        buffer.push(_serial_episodes(other, 1, np.random.default_rng(0))[0])

    past_the_end = ReplayBuffer(8, n_actions=env.n_actions)
    past_the_end.bind_fixed_block(slice(env.state_dim - 1, env.state_dim + 2), np.zeros(3))
    with pytest.raises(DataError):
        past_the_end.push(_serial_episodes(env.problem, 1, np.random.default_rng(0))[0])


@pytest.mark.parametrize("buffer_type", BUFFERS)
@pytest.mark.parametrize("n_tasks, n_processors", [(8, 3), (50, 10)])
def test_bound_rows_store_only_the_varying_columns(buffer_type, n_tasks, n_processors):
    problem = random_instance(n_tasks, n_processors, seed=2)
    env = AllocationEnv(problem)
    buffer = buffer_type(64, n_actions=env.n_actions)
    buffer.bind_fixed_block(*env.fixed_block())
    _fill(buffer, _serial_episodes(problem, 1, np.random.default_rng(0)))
    storage = buffer._storage
    stored = storage._states.shape[1] + storage._next_states.shape[1]
    assert stored == 2 * (n_tasks + 3 * n_processors)


def test_training_writers_bind_their_environment():
    """Serial training, lockstep training and demonstration seeding all
    leave buffers that store only the varying columns."""
    geometry = random_instance(6, 2, seed=3)
    tasks = [
        AgentTrainTask(
            geometry=geometry,
            importance=np.random.default_rng(seed).random(6),
            dqn_config=DQNConfig(hidden_sizes=(8,), batch_size=8, warmup_transitions=8),
            episodes=2,
            seed=seed,
        )
        for seed in range(3)
    ]
    agents = [train_allocation_agent(tasks[0]), *train_allocation_agents_stacked(tasks)]
    for agent in agents:
        assert agent.buffer._storage._states.shape[1] == 6 + 3 * 2
