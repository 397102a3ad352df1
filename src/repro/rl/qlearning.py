"""Tabular Q-learning (Watkins & Dayan 1992).

The paper's convergence argument rests on classic Q-learning guarantees;
this tabular agent provides the reference implementation used by the tests
to verify that the allocation MDP is well-posed (tabular Q-learning finds
the optimum on small instances) and by the DQN tests as a ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rl.env import AllocationEnv
from repro.tatim.solution import Allocation
from repro.utils.rng import as_rng


class QLearningAgent:
    """ε-greedy tabular Q-learning over hashed state vectors."""

    def __init__(
        self,
        *,
        learning_rate: float = 0.2,
        gamma: float = 1.0,
        epsilon: float = 0.3,
        epsilon_decay: float = 0.995,
        epsilon_min: float = 0.02,
        seed=None,
    ) -> None:
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 <= gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {gamma}")
        self.learning_rate = learning_rate
        self.gamma = gamma
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.epsilon_min = epsilon_min
        self._rng = as_rng(seed)
        self._q: dict[tuple[bytes, int], float] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _key(state: np.ndarray) -> bytes:
        return np.round(state, 6).tobytes()

    def best_action(self, state: np.ndarray, feasible: np.ndarray) -> int:
        # Hash the state once, not once per candidate action: the key is a
        # full-vector round + serialize, the lookups are cheap dict gets.
        key = self._key(state)
        values = np.fromiter(
            (self._q.get((key, int(a)), 0.0) for a in feasible),
            dtype=float,
            count=feasible.size,
        )
        return int(feasible[int(np.argmax(values))])

    def act(self, state: np.ndarray, feasible: np.ndarray, *, greedy: bool = False) -> int:
        if feasible.size == 0:
            raise ConfigurationError("no feasible actions to act on")
        if not greedy and self._rng.random() < self.epsilon:
            return int(self._rng.choice(feasible))
        return self.best_action(state, feasible)

    # ------------------------------------------------------------------
    def train_episode(self, env: AllocationEnv) -> float:
        """One episode of on-line Q-learning; returns the episode return."""
        state = env.reset()
        total = 0.0
        while not env.done:
            feasible = env.feasible_actions()
            action = self.act(state, feasible)
            next_state, reward, done, _ = env.step(action)
            total += reward
            if done:
                target = reward
            else:
                next_feasible = env.feasible_actions()
                next_key = self._key(next_state)
                best_next = max(
                    self._q.get((next_key, int(a)), 0.0) for a in next_feasible
                )
                target = reward + self.gamma * best_next
            key = (self._key(state), int(action))
            old = self._q.get(key, 0.0)
            self._q[key] = old + self.learning_rate * (target - old)
            state = next_state
        self.epsilon = max(self.epsilon_min, self.epsilon * self.epsilon_decay)
        return total

    def train(self, env: AllocationEnv, episodes: int) -> np.ndarray:
        """Run ``episodes`` episodes; returns the per-episode returns."""
        if episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
        return np.array([self.train_episode(env) for _ in range(episodes)])

    def solve(self, env: AllocationEnv) -> Allocation:
        """Greedy rollout of the learned policy."""
        state = env.reset()
        while not env.done:
            action = self.act(state, env.feasible_actions(), greedy=True)
            state, _, _, _ = env.step(action)
        return env.allocation()

    @property
    def table_size(self) -> int:
        return len(self._q)
