"""The TATIM allocation environment — the MDP of Section III-D.

Design follows the paper's key choices:

- **Environment** ``e``: the geometry (task importance × processor
  capacity) is encoded into the observation so the same agent architecture
  works across environments.
- **State**: which tasks have been selected so far (the paper's 0/1
  selection matrix), plus remaining per-processor budgets — a fixed-length
  vector suitable "as an input to a neural network".
- **Action**: exactly one micro-action per step, keeping the action space
  linear instead of 2^{N×M}: action ``j < N`` assigns task j to the
  *current* processor; action ``N`` closes the current processor and moves
  on. The episode ends when the last processor closes.
- **Reward**: terminal-only — Σ I_j of all allocated tasks when the agent
  reaches the terminal state, 0 otherwise (the paper's r(t)). A dense
  variant (+I_j per assignment) is available for the reward-shaping
  ablation benchmark.

The observation is maintained *incrementally*: one preallocated buffer is
written at :meth:`reset` — the geometry slices (normalized importance,
times, resources) never change within an episode, so they are written
once at construction — and :meth:`step` touches only the entries the
action actually mutates (one selected bit, two one-hot entries, the
current processor's two budget slots). Every write applies the same
arithmetic, in the same order, as a from-scratch rebuild, so the buffer
is bit-for-bit equal to what the old concatenating implementation
produced; :meth:`state_vector` returns a copy so stored transitions stay
immutable. Feasibility is tracked the same way: within a processor,
budgets only shrink, so the candidate set can only lose members — each
assignment rechecks just the surviving candidates instead of rescanning
all tasks, and closing a processor triggers the one full rescan that is
actually necessary.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.tatim.problem import TATIMProblem
from repro.tatim.solution import Allocation

#: Feasibility slack matching the solvers' tolerance.
_TOL = 1e-12


class AllocationEnv:
    """Sequential TATIM allocation as an episodic MDP.

    Parameters
    ----------
    problem:
        The TATIM instance to allocate. The observation layout depends only
        on (n_tasks, n_processors), so agents transfer across instances
        with the same geometry — that is what CRL's per-cluster training
        relies on.
    dense_reward:
        If True, emit +I_j on each assignment instead of the terminal-only
        sum (ablation mode; default False matches the paper).
    """

    def __init__(self, problem: TATIMProblem, *, dense_reward: bool = False) -> None:
        self.problem = problem
        self.dense_reward = bool(dense_reward)
        self.n_tasks = problem.n_tasks
        self.n_processors = problem.n_processors
        self._importance_scale = float(problem.importance.max()) or 1.0
        n, m = self.n_tasks, self.n_processors
        self._limits = problem.processor_time_limits().astype(float)
        self._capacities = problem.capacities.astype(float)
        # Buffer layout: [selected | importance | times | resources |
        # processor one-hot | remaining time | remaining capacity].
        self._off_onehot = 4 * n
        self._off_time = 4 * n + m
        self._off_capacity = 4 * n + 2 * m
        self._state = np.empty(4 * n + 3 * m, dtype=float)
        self._state[n : 2 * n] = problem.importance / self._importance_scale
        self._state[2 * n : 3 * n] = problem.times / float(self._limits.mean())
        self._state[3 * n : 4 * n] = problem.resources / float(problem.capacities.mean())
        self._assigned = np.empty(n, dtype=int)
        self._remaining_time = np.empty(m, dtype=float)
        self._remaining_capacity = np.empty(m, dtype=float)
        self._empty_feasible = np.array([], dtype=int)
        self._empty_feasible.flags.writeable = False
        self.reset()

    # ------------------------------------------------------------------
    @property
    def n_actions(self) -> int:
        """Task assignments plus the "close current processor" action."""
        return self.n_tasks + 1

    @property
    def close_action(self) -> int:
        return self.n_tasks

    @property
    def state_dim(self) -> int:
        return 4 * self.n_tasks + 3 * self.n_processors

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        self._assigned.fill(-1)
        self._remaining_time[:] = self._limits
        self._remaining_capacity[:] = self._capacities
        self._current = 0
        self._done = False
        buf = self._state
        n = self.n_tasks
        buf[:n] = 0.0
        buf[self._off_onehot : self._off_time] = 0.0
        buf[self._off_onehot] = 1.0
        buf[self._off_time : self._off_capacity] = self._remaining_time / self._limits
        buf[self._off_capacity :] = self._remaining_capacity / self._capacities
        self._rescan_fits()
        return self.state_vector()

    def state_vector(self) -> np.ndarray:
        """Fixed-length observation: selection state ++ geometry ++ budgets."""
        return self._state.copy()

    def fixed_block(self) -> tuple[slice, np.ndarray]:
        """The observation columns no step changes, and their values.

        That is the geometry block ``[n, 4n)`` (normalized importance,
        times, resources); replay buffers store it once
        (:meth:`repro.rl.replay.ReplayBuffer.bind_fixed_block`).
        """
        n = self.n_tasks
        return slice(n, 4 * n), self._state[n : 4 * n].copy()

    # ------------------------------------------------------------------
    def _rescan_fits(self) -> None:
        """Full candidate rescan — only needed when the processor changes."""
        if self._done:
            self._fit_idx = self._empty_feasible
        else:
            current = self._current
            fits = (
                (self._assigned < 0)
                & (self.problem.times <= self._remaining_time[current] + _TOL)
                & (self.problem.resources <= self._remaining_capacity[current] + _TOL)
            )
            self._fit_idx = np.flatnonzero(fits)
        self._feasible = None

    def feasible_actions(self) -> np.ndarray:
        """Actions legal in the current state (closing is always legal).

        The result is cached per state (the training loop asks twice per
        transition: once for the next-state feasible set stored in replay
        and once when that state becomes current) and returned read-only —
        treat it as a snapshot, not a scratch array.
        """
        if self._done:
            return self._empty_feasible
        if self._feasible is None:
            feasible = np.append(self._fit_idx, self.close_action)
            feasible.flags.writeable = False
            self._feasible = feasible
        return self._feasible

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]:
        """Apply one action; returns (state, reward, done, info)."""
        if self._done:
            raise SimulationError("episode already terminated; call reset()")
        action = int(action)
        reward = 0.0
        buf = self._state
        if action == self.close_action:
            buf[self._off_onehot + self._current] = 0.0
            self._current += 1
            if self._current >= self.n_processors:
                self._done = True
                if not self.dense_reward:
                    reward = self.total_importance()
            else:
                buf[self._off_onehot + self._current] = 1.0
            self._rescan_fits()
        elif 0 <= action < self.n_tasks:
            if self._assigned[action] >= 0:
                raise SimulationError(f"task {action} is already assigned")
            current = self._current
            if (
                self.problem.times[action] > self._remaining_time[current] + _TOL
                or self.problem.resources[action]
                > self._remaining_capacity[current] + _TOL
            ):
                raise SimulationError(
                    f"task {action} does not fit on processor {current}"
                )
            self._assigned[action] = current
            self._remaining_time[current] -= self.problem.times[action]
            self._remaining_capacity[current] -= self.problem.resources[action]
            buf[action] = 1.0
            buf[self._off_time + current] = (
                self._remaining_time[current] / self._limits[current]
            )
            buf[self._off_capacity + current] = (
                self._remaining_capacity[current] / self._capacities[current]
            )
            # Budgets only shrank: candidates can only drop out, so recheck
            # the survivors instead of rescanning every task.
            candidates = self._fit_idx
            keep = (
                (self.problem.times[candidates] <= self._remaining_time[current] + _TOL)
                & (
                    self.problem.resources[candidates]
                    <= self._remaining_capacity[current] + _TOL
                )
                & (candidates != action)
            )
            self._fit_idx = candidates[keep]
            self._feasible = None
            if self.dense_reward:
                reward = float(self.problem.importance[action])
        else:
            raise ConfigurationError(f"action {action} outside [0, {self.n_actions})")
        return self.state_vector(), reward, self._done, {"current": self._current}

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    def total_importance(self) -> float:
        """Σ I_j over currently assigned tasks (the terminal reward)."""
        mask = self._assigned >= 0
        return float(self.problem.importance[mask].sum())

    def allocation(self) -> Allocation:
        """The allocation built so far as a validated matrix."""
        assignment = {
            int(task): int(processor)
            for task, processor in enumerate(self._assigned)
            if processor >= 0
        }
        return Allocation.from_assignment(
            assignment, self.n_tasks, self.n_processors
        ).validate(self.problem)


class BatchedAllocationEnv:
    """A batch of allocation episodes stepped with one numpy pass each.

    All problems must share ``(n_tasks, n_processors)`` — the geometry
    invariant CRL's per-cluster agents already rely on. Every episode's
    observation is a row of one stacked ``(episodes, state_dim)`` buffer,
    feasibility is one boolean ``(episodes, n_actions)`` mask matrix, and
    :meth:`step` applies one action per live episode through vectorized
    gather/scatter writes.

    Bitwise contract: every per-row write applies the same arithmetic as
    the serial :class:`AllocationEnv` incremental update (scalar
    normalizations become row-broadcast divisions, the per-task
    feasibility comparisons become one matrix comparison — elementwise ops
    either way), so row ``i`` of every observable is always byte-equal to
    a serial ``AllocationEnv(problems[i])`` driven through the same
    action sequence. The property tests in
    ``tests/rl/test_kernel_identity.py`` pin this.
    """

    def __init__(self, problems) -> None:
        problems = list(problems)
        if not problems:
            raise ConfigurationError("BatchedAllocationEnv needs at least one problem")
        first = problems[0]
        for problem in problems[1:]:
            if (
                problem.n_tasks != first.n_tasks
                or problem.n_processors != first.n_processors
            ):
                raise ConfigurationError(
                    "batched episodes must share the (n_tasks, n_processors) geometry"
                )
        self.problems = problems
        self.n_tasks = first.n_tasks
        self.n_processors = first.n_processors
        n, m = self.n_tasks, self.n_processors
        count = len(problems)
        self._times = np.stack([p.times.astype(float) for p in problems])
        self._resources = np.stack([p.resources.astype(float) for p in problems])
        self._importance = np.stack([p.importance.astype(float) for p in problems])
        self._limits = np.stack(
            [p.processor_time_limits().astype(float) for p in problems]
        )
        self._capacities = np.stack([p.capacities.astype(float) for p in problems])
        importance_scale = np.array(
            [float(p.importance.max()) or 1.0 for p in problems]
        )
        self._off_onehot = 4 * n
        self._off_time = 4 * n + m
        self._off_capacity = 4 * n + 2 * m
        self._state = np.empty((count, 4 * n + 3 * m), dtype=float)
        # Geometry slices are fixed per episode; the row-broadcast divides
        # match the serial scalar normalizations elementwise.
        self._state[:, n : 2 * n] = self._importance / importance_scale[:, None]
        self._state[:, 2 * n : 3 * n] = self._times / self._limits.mean(axis=1)[:, None]
        self._state[:, 3 * n : 4 * n] = (
            self._resources / self._capacities.mean(axis=1)[:, None]
        )
        self._assigned = np.empty((count, n), dtype=int)
        self._remaining_time = np.empty((count, m), dtype=float)
        self._remaining_capacity = np.empty((count, m), dtype=float)
        self._current = np.empty(count, dtype=int)
        self._done = np.empty(count, dtype=bool)
        self._mask = np.empty((count, n + 1), dtype=bool)
        self.reset()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.problems)

    @property
    def n_actions(self) -> int:
        return self.n_tasks + 1

    @property
    def close_action(self) -> int:
        return self.n_tasks

    @property
    def state_dim(self) -> int:
        return 4 * self.n_tasks + 3 * self.n_processors

    @property
    def done_mask(self) -> np.ndarray:
        """Per-episode termination flags (treat as read-only)."""
        return self._done

    @property
    def feasible_mask(self) -> np.ndarray:
        """Boolean (episodes, n_actions) legality matrix (treat as read-only).

        Row ``i`` marks exactly the actions
        ``AllocationEnv.feasible_actions`` would return for episode ``i``
        (the close action is the last column); done rows are all-False.
        """
        return self._mask

    @property
    def states(self) -> np.ndarray:
        """The stacked (episodes, state_dim) observation buffer.

        A live view for zero-copy batched forwards — treat as read-only
        and copy rows (:meth:`state_row`) before storing them.
        """
        return self._state

    def state_row(self, row: int) -> np.ndarray:
        """Episode ``row``'s observation as an immutable-safe copy."""
        return self._state[row].copy()

    def state_rows(self, rows) -> np.ndarray:
        """Copies of the given episodes' observations, stacked."""
        return self._state[np.asarray(rows, dtype=int)]

    def fixed_block(self, row: int) -> tuple[slice, np.ndarray]:
        """Episode ``row``'s fixed geometry block (see
        :meth:`AllocationEnv.fixed_block`)."""
        n = self.n_tasks
        return slice(n, 4 * n), self._state[row, n : 4 * n].copy()

    def feasible_row(self, row: int) -> np.ndarray:
        """Feasible action indices for episode ``row`` (close index last) —
        the same integers, in the same order, as the serial
        ``feasible_actions()``."""
        return np.flatnonzero(self._mask[row])

    # ------------------------------------------------------------------
    def reset(self, rows=None) -> None:
        """Reset all (or the given) episodes to their initial state."""
        rows = np.arange(len(self.problems)) if rows is None else np.asarray(rows, dtype=int)
        if rows.size == 0:
            return
        n = self.n_tasks
        self._assigned[rows] = -1
        self._remaining_time[rows] = self._limits[rows]
        self._remaining_capacity[rows] = self._capacities[rows]
        self._current[rows] = 0
        self._done[rows] = False
        buf = self._state
        buf[rows, :n] = 0.0
        buf[rows, self._off_onehot : self._off_time] = 0.0
        buf[rows, self._off_onehot] = 1.0
        buf[rows, self._off_time : self._off_capacity] = (
            self._remaining_time[rows] / self._limits[rows]
        )
        buf[rows, self._off_capacity :] = (
            self._remaining_capacity[rows] / self._capacities[rows]
        )
        self._refresh_mask(rows)

    def _refresh_mask(self, rows: np.ndarray) -> None:
        """Recompute feasibility for the given rows in one matrix pass.

        The serial env narrows candidates incrementally; recomputing the
        full comparison gives the identical set because the budget values
        are bitwise equal and the comparisons are elementwise.
        """
        active = ~self._done[rows]
        current = np.where(active, self._current[rows], 0)
        remaining_time = self._remaining_time[rows, current]
        remaining_capacity = self._remaining_capacity[rows, current]
        fits = (
            (self._assigned[rows] < 0)
            & (self._times[rows] <= remaining_time[:, None] + _TOL)
            & (self._resources[rows] <= remaining_capacity[:, None] + _TOL)
        )
        fits &= active[:, None]
        self._mask[rows, : self.n_tasks] = fits
        self._mask[rows, self.n_tasks] = active

    def step(self, actions, rows=None, *, check: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Apply one action per row; returns (rewards, dones) for those rows.

        ``rows`` defaults to every live episode. Raises on any infeasible
        action, like the serial env; callers that construct actions from
        the current legality mask (the lockstep trainer, batched greedy
        rollouts) pass ``check=False`` to skip the validation passes.
        """
        rows = (
            np.flatnonzero(~self._done) if rows is None else np.asarray(rows, dtype=int)
        )
        actions = np.asarray(actions, dtype=int)
        if actions.shape != rows.shape:
            raise ConfigurationError(
                f"got {actions.size} actions for {rows.size} episode rows"
            )
        if rows.size == 0:
            return np.zeros(0), np.zeros(0, dtype=bool)
        if check:
            if np.any(self._done[rows]):
                raise SimulationError("episode already terminated; call reset()")
            if np.any((actions < 0) | (actions >= self.n_actions)):
                raise ConfigurationError(
                    f"actions outside [0, {self.n_actions}) in batched step"
                )
            legal = self._mask[rows, actions]
            if not np.all(legal):
                bad = int(rows[~legal][0])
                raise SimulationError(
                    f"infeasible action {int(actions[~legal][0])} for episode row {bad}"
                )
        buf = self._state
        rewards = np.zeros(rows.size)
        closing = actions == self.close_action
        assign_rows = rows[~closing]
        if assign_rows.size:
            tasks = actions[~closing]
            current = self._current[assign_rows]
            self._assigned[assign_rows, tasks] = current
            self._remaining_time[assign_rows, current] = (
                self._remaining_time[assign_rows, current]
                - self._times[assign_rows, tasks]
            )
            self._remaining_capacity[assign_rows, current] = (
                self._remaining_capacity[assign_rows, current]
                - self._resources[assign_rows, tasks]
            )
            buf[assign_rows, tasks] = 1.0
            buf[assign_rows, self._off_time + current] = (
                self._remaining_time[assign_rows, current]
                / self._limits[assign_rows, current]
            )
            buf[assign_rows, self._off_capacity + current] = (
                self._remaining_capacity[assign_rows, current]
                / self._capacities[assign_rows, current]
            )
        close_rows = rows[closing]
        if close_rows.size:
            current = self._current[close_rows]
            buf[close_rows, self._off_onehot + current] = 0.0
            current = current + 1
            self._current[close_rows] = current
            finished = current >= self.n_processors
            finished_rows = close_rows[finished]
            if finished_rows.size:
                self._done[finished_rows] = True
                # Terminal reward per finished row: the same
                # gather-then-sum as the serial total_importance().
                closing_positions = np.flatnonzero(closing)
                for position, row in zip(closing_positions[finished], finished_rows):
                    rewards[position] = self.total_importance(int(row))
            open_rows = close_rows[~finished]
            if open_rows.size:
                buf[open_rows, self._off_onehot + self._current[open_rows]] = 1.0
        self._refresh_mask(rows)
        return rewards, self._done[rows].copy()

    # ------------------------------------------------------------------
    def total_importance(self, row: int) -> float:
        """Σ I_j over episode ``row``'s assigned tasks (the terminal reward)."""
        selected = self._assigned[row] >= 0
        return float(self._importance[row][selected].sum())

    def allocation(self, row: int) -> Allocation:
        """Episode ``row``'s allocation so far as a validated matrix."""
        assignment = {
            int(task): int(processor)
            for task, processor in enumerate(self._assigned[row])
            if processor >= 0
        }
        return Allocation.from_assignment(
            assignment, self.n_tasks, self.n_processors
        ).validate(self.problems[row])
