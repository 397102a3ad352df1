"""Experience replay for DQN, backed by structure-of-arrays storage.

The buffer stores columns, not objects: ring-indexed 2-D ``states`` /
``next_states`` matrices, flat ``action`` / ``reward`` / ``done``
arrays, and a boolean ``(rows, n_actions)`` legality matrix marking the
actions feasible in each next state. Transitions arrive one at a time,
either as a :class:`Transition` (:meth:`ReplayBuffer.push`, which turns
its feasible-index array into a mask row) or as column values with a
ready mask row (:meth:`ReplayBuffer.push_columns`, the lockstep
trainer's path); both write through the same ring slot, so the sampled
batches are byte-identical. Training gets its batch matrices from
:meth:`ReplayBuffer.sample_batch` by fancy-indexing the columns, with
no per-transition restacking of Python objects per gradient step.

A buffer filled from one environment may be bound to that
environment's *fixed block* (:meth:`ReplayBuffer.bind_fixed_block`):
the observation columns that never change within the environment (the
allocation env's normalized importance, times and resources). The
block is then held once per buffer and each state row stores only the
remaining columns; gathers splice the block back in, so sampled rows
are bit-for-bit the pushed ones. An unbound buffer holds a zero-width
block and keeps full rows through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.rng import as_rng

#: First allocation of the ring columns; doubled until ``capacity`` so a
#: mostly-empty 50k-capacity buffer doesn't pin tens of MB up front.
_INITIAL_ROWS = 256

_COLUMNS = ("_states", "_next_states", "_actions", "_rewards", "_dones", "_feasible_mask")

#: The fixed block of a buffer never bound to one.
_NO_BLOCK = np.empty(0)
_NO_BLOCK.flags.writeable = False


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) tuple plus the next state's feasible actions.

    Feasible actions must be stored because the Bellman backup's
    ``max_a' Q(s', a')`` must range over *legal* actions only — masking at
    training time, not just acting time, is what keeps the learned Q from
    chasing unreachable assignments.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    next_feasible: np.ndarray


@dataclass(frozen=True)
class TransitionBatch:
    """A sampled batch as column matrices, ready for vectorized training.

    ``feasible_mask`` is the boolean (batch, n_actions) legality matrix
    of each row's next state (all-False on terminal rows).
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    feasible_mask: np.ndarray

    def __len__(self) -> int:
        return int(self.actions.size)


class _SoAStorage:
    """Ring-indexed column store shared by the uniform and prioritized buffers.

    State columns hold each row minus the fixed block
    ``[block_start, block_start + block.size)``; the block itself is
    stored once (zero-width until :meth:`bind_fixed_block`).
    """

    def __init__(self, capacity: int, *, n_actions: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if n_actions < 1:
            raise ConfigurationError(f"n_actions must be >= 1, got {n_actions}")
        self.capacity = int(capacity)
        self.n_actions = int(n_actions)
        self._size = 0
        self._cursor = 0
        self._rows = 0
        self._state_dim = 0
        self._states: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._dones: np.ndarray | None = None
        self._feasible_mask: np.ndarray | None = None
        self._block_start = 0
        self._block = _NO_BLOCK

    def __len__(self) -> int:
        return self._size

    def bind_fixed_block(self, columns: slice, values) -> None:
        """See :meth:`ReplayBuffer.bind_fixed_block`."""
        values = np.array(values, dtype=float).ravel()
        start = columns.start or 0
        if columns.step not in (None, 1) or start < 0 or columns.stop != start + values.size:
            raise DataError(f"fixed block {columns} does not span its {values.size} values")
        if self._block.size:
            if start != self._block_start or not np.array_equal(values, self._block):
                raise DataError("replay buffer is already bound to a different fixed block")
            return
        if self._states is not None:
            raise DataError("cannot bind a fixed block after rows are stored")
        values.flags.writeable = False
        self._block_start = start
        self._block = values

    # ------------------------------------------------------------------
    def _allocate(self, state_dim: int, rows: int) -> None:
        if self._block_start + self._block.size > state_dim:
            raise DataError(f"fixed block ends past the state dim {state_dim}")
        self._rows = rows
        self._state_dim = state_dim
        stored_dim = state_dim - self._block.size
        self._states = np.empty((rows, stored_dim), dtype=float)
        self._next_states = np.empty((rows, stored_dim), dtype=float)
        self._actions = np.empty(rows, dtype=int)
        self._rewards = np.empty(rows, dtype=float)
        self._dones = np.empty(rows, dtype=bool)
        self._feasible_mask = np.zeros((rows, self.n_actions), dtype=bool)

    def _grow(self) -> None:
        rows = min(self.capacity, max(self._rows * 2, _INITIAL_ROWS))
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
            new[: self._rows] = old
            setattr(self, name, new)
        self._rows = rows

    def push(self, transition: Transition) -> int:
        """Write one transition; returns the row it landed in."""
        mask_row = np.zeros(self.n_actions, dtype=bool)
        mask_row[np.asarray(transition.next_feasible, dtype=int)] = True
        return self.push_columns(
            transition.state,
            transition.action,
            transition.reward,
            transition.next_state,
            transition.done,
            mask_row,
        )

    def push_columns(
        self, state, action, reward, next_state, done, feasible_mask_row
    ) -> int:
        """Write one transition's fields straight into the ring columns.

        ``feasible_mask_row`` is the boolean legality row of the next
        state; it is copied, not kept. Returns the row written.
        """
        state = np.asarray(state, dtype=float)
        next_state = np.asarray(next_state, dtype=float)
        if self._states is None:
            self._allocate(state.size, min(self.capacity, _INITIAL_ROWS))
        if not state.size == next_state.size == self._state_dim:
            raise DataError(
                f"state dims {state.size}/{next_state.size} != stored dim {self._state_dim}"
            )
        start, stop = self._block_start, self._block_start + self._block.size
        block = self._block
        if (state[start:stop] != block).any() or (next_state[start:stop] != block).any():
            raise DataError("pushed state does not carry the buffer's fixed block")
        if self._size < self.capacity:
            index = self._size
            if index >= self._rows:
                self._grow()
            self._size += 1
        else:
            index = self._cursor
        self._cursor = (self._cursor + 1) % self.capacity
        self._states[index, :start] = state[:start]
        self._states[index, start:] = state[stop:]
        self._next_states[index, :start] = next_state[:start]
        self._next_states[index, start:] = next_state[stop:]
        self._actions[index] = action
        self._rewards[index] = reward
        self._dones[index] = done
        self._feasible_mask[index] = feasible_mask_row
        return index

    # ------------------------------------------------------------------
    def _gather_rows(self, columns: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
        """Full state rows into ``out``: stored columns around the block.

        The rows are fancy-indexed into a contiguous temporary first:
        ``take`` into a strided slice of ``out`` is ~15x slower.
        """
        start, stop = self._block_start, self._block_start + self._block.size
        stored = columns[indices]
        out[:, :start] = stored[:, :start]
        out[:, start:stop] = self._block
        out[:, stop:] = stored[:, start:]

    def gather_batch(self, indices: np.ndarray) -> TransitionBatch:
        shape = (len(indices), self._state_dim)
        states, next_states = np.empty(shape), np.empty(shape)
        self._gather_rows(self._states, indices, states)
        self._gather_rows(self._next_states, indices, next_states)
        return TransitionBatch(
            states=states,
            actions=self._actions[indices],
            rewards=self._rewards[indices],
            next_states=next_states,
            dones=self._dones[indices],
            feasible_mask=self._feasible_mask[indices],
        )

    def gather_batch_into(self, indices: np.ndarray, out) -> None:
        """Gather the indexed rows into preallocated column buffers.

        ``out`` is a ``(states, actions, rewards, next_states, dones,
        feasible_mask)`` tuple of arrays shaped like one batch; every
        column lands the same values :meth:`gather_batch` returns, and
        only the stored state rows pass through a temporary.
        """
        states, actions, rewards, next_states, dones, feasible_mask = out
        self._gather_rows(self._states, indices, states)
        self._actions.take(indices, axis=0, out=actions)
        self._rewards.take(indices, axis=0, out=rewards)
        self._gather_rows(self._next_states, indices, next_states)
        self._dones.take(indices, axis=0, out=dones)
        self._feasible_mask.take(indices, axis=0, out=feasible_mask)

    def clear(self) -> None:
        self._size = 0
        self._cursor = 0


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    Parameters
    ----------
    capacity:
        Ring size; old rows are overwritten once full.
    n_actions:
        Action-space width (>= 1): the column count of the stored
        feasible-mask matrix.
    """

    def __init__(self, capacity: int = 50_000, *, n_actions: int, seed=None) -> None:
        self.capacity = int(capacity)
        self._storage = _SoAStorage(capacity, n_actions=n_actions)
        self._rng = as_rng(seed)

    def __len__(self) -> int:
        return len(self._storage)

    def bind_fixed_block(self, columns: slice, values) -> None:
        """Hold the state columns ``columns`` once, as ``values``.

        Call it before the first push with an environment's
        ``fixed_block()``; rows then store only the other columns.
        Every pushed state and next state must carry ``values`` there.
        Binding the bound block again is a no-op; binding a different
        one, or binding after unbound rows were stored, raises
        :class:`~repro.errors.DataError`.
        """
        self._storage.bind_fixed_block(columns, values)

    def push(self, transition: Transition) -> None:
        self._storage.push(transition)

    def push_columns(
        self, state, action, reward, next_state, done, feasible_mask_row
    ) -> None:
        """Column-direct push (see :meth:`_SoAStorage.push_columns`)."""
        self._storage.push_columns(
            state, action, reward, next_state, done, feasible_mask_row
        )

    def _sample_indices(self, batch_size: int) -> np.ndarray:
        """Uniform draw *without replacement* (clamped to the buffer size).

        Sampling with replacement would let one transition appear several
        times in a batch, double-counting its TD error in the gradient
        step; drawing distinct indices keeps each batched update an
        unbiased average over distinct experience.
        """
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self._storage)
        if not n:
            raise DataError("cannot sample from an empty replay buffer")
        if n > batch_size:
            return self._rng.choice(n, size=batch_size, replace=False)
        return self._rng.permutation(n)

    def sample_batch(self, batch_size: int) -> TransitionBatch:
        """A uniform batch as column matrices."""
        return self._storage.gather_batch(self._sample_indices(batch_size))

    def sample_batch_into(self, batch_size: int, out) -> None:
        """Draw a uniform batch straight into preallocated column buffers.

        RNG consumption and gathered values match :meth:`sample_batch`
        exactly; the cross-agent fused trainer uses this to fill slices
        of its stacked ``(agents, batch, ·)`` arrays without per-agent
        allocations or a later ``np.stack`` copy.
        """
        self._storage.gather_batch_into(self._sample_indices(batch_size), out)

    def clear(self) -> None:
        self._storage.clear()
