"""Prioritized experience replay (Schaul et al. 2016, proportional variant).

In the allocation MDP the reward is terminal-only, so the few transitions
that actually carry reward signal are rare in a uniform sample. Prioritized
replay samples transitions proportionally to their last TD error
(p_i = (|δ_i| + ε)^α) and corrects the induced bias with importance-
sampling weights w_i = (N·P(i))^{-β}. Drop-in alternative to
:class:`repro.rl.replay.ReplayBuffer` via the shared push/sample_batch
surface; the DQN agent applies the weights when the buffer provides them.

Storage rides on the same structure-of-arrays backing store as the
uniform buffer (:class:`repro.rl.replay._SoAStorage`), with priorities in
a preallocated flat array — sampling powers/normalizes a slice view
instead of materializing a Python list every draw, and priority updates
are one vectorized scatter.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.rl.replay import Transition, TransitionBatch, _SoAStorage
from repro.utils.rng import as_rng


class PrioritizedReplayBuffer:
    """Proportional prioritized replay with IS-weight correction.

    Parameters
    ----------
    capacity:
        Ring-buffer size.
    alpha:
        Prioritization strength (0 = uniform).
    beta:
        Importance-sampling correction strength (1 = full correction).
    epsilon:
        Priority floor so zero-error transitions stay sampleable.
    n_actions:
        Action-space width (>= 1) of the stored feasible-mask matrix
        (see :class:`repro.rl.replay.ReplayBuffer`).
    """

    def __init__(
        self,
        capacity: int = 50_000,
        *,
        alpha: float = 0.6,
        beta: float = 0.4,
        epsilon: float = 1e-3,
        n_actions: int,
        seed=None,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError(f"beta must be in [0, 1], got {beta}")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
        self._storage = _SoAStorage(capacity, n_actions=n_actions)
        self.capacity = int(capacity)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.epsilon = float(epsilon)
        self._priorities = np.empty(min(self.capacity, 1024), dtype=float)
        self._max_priority = 1.0
        self._rng = as_rng(seed)
        self._last_indices: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._storage)

    # ------------------------------------------------------------------
    def bind_fixed_block(self, columns: slice, values) -> None:
        """Store the state columns ``columns`` once (see
        :meth:`repro.rl.replay.ReplayBuffer.bind_fixed_block`)."""
        self._storage.bind_fixed_block(columns, values)

    def push(self, transition: Transition) -> None:
        """Insert with maximal priority (every transition gets one look)."""
        index = self._storage.push(transition)
        if index >= self._priorities.size:
            grown = np.empty(
                min(self.capacity, max(self._priorities.size * 2, index + 1)),
                dtype=float,
            )
            grown[: self._priorities.size] = self._priorities
            self._priorities = grown
        self._priorities[index] = self._max_priority

    def _sample_indices(self, batch_size: int) -> np.ndarray:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self._storage)
        if not n:
            raise DataError("cannot sample from an empty replay buffer")
        priorities = self._priorities[:n] ** self.alpha
        probabilities = priorities / priorities.sum()
        size = min(batch_size, n)
        indices = self._rng.choice(n, size=size, p=probabilities)
        self._last_indices = indices
        self._last_probabilities = probabilities[indices]
        return indices

    def sample_batch(self, batch_size: int) -> TransitionBatch:
        """Priority-proportional sample; records indices for the update."""
        return self._storage.gather_batch(self._sample_indices(batch_size))

    def last_sample_weights(self) -> np.ndarray:
        """IS weights of the most recent sample, normalized to max 1."""
        if self._last_indices is None:
            raise DataError("no sample drawn yet")
        n = len(self._storage)
        weights = (n * self._last_probabilities) ** (-self.beta)
        return weights / weights.max()

    def update_priorities(self, td_errors: np.ndarray) -> None:
        """Set the last sample's priorities from its TD errors."""
        if self._last_indices is None:
            raise DataError("no sample drawn yet")
        errors = np.abs(np.asarray(td_errors, dtype=float)).ravel()
        if errors.size != self._last_indices.size:
            raise DataError(
                f"{errors.size} TD errors for {self._last_indices.size} sampled transitions"
            )
        priorities = errors + self.epsilon
        self._priorities[self._last_indices] = priorities
        self._max_priority = max(self._max_priority, float(priorities.max()))

    def clear(self) -> None:
        self._storage.clear()
        self._last_indices = None
