"""Deep Q-learning agent for the allocation MDP (Algorithm 1's optimizer).

Implements the loss of Algorithm 1 line 4,

    L(s, a | θ) = (r + λ · max_{a'} Q(s', a'|θ⁻) − Q(s, a|θ))²,

with the standard stabilizers: an experience-replay buffer, a periodically
synced target network θ⁻, and ε-greedy exploration over the *feasible*
action set (infeasible actions are masked both when acting and inside the
Bellman max, so the learned policy always emits valid allocations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.neural import MLP, Adam
from repro.rl.env import AllocationEnv, BatchedAllocationEnv
from repro.rl.replay import ReplayBuffer, Transition
from repro.tatim.solution import Allocation
from repro.telemetry import get_registry, span
from repro.utils.rng import as_rng

#: Q-value assigned to masked (infeasible) actions.
MASKED_Q = -1e9


@dataclass(frozen=True)
class DQNConfig:
    """Hyper-parameters of the DQN agent.

    ``double_q`` enables Double DQN (van Hasselt 2016): the online network
    selects the argmax action and the target network evaluates it,
    countering the max-operator's overestimation bias.
    """

    hidden_sizes: tuple[int, ...] = (128, 64)
    learning_rate: float = 1e-3
    gamma: float = 1.0
    double_q: bool = False
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995
    batch_size: int = 32
    buffer_capacity: int = 20_000
    target_sync_every: int = 200
    train_every: int = 1
    warmup_transitions: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.hidden_sizes:
            raise ConfigurationError("hidden_sizes must not be empty")


class DQNAgent:
    """DQN over a fixed (state_dim, n_actions) geometry."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        config: DQNConfig | None = None,
        *,
        buffer=None,
        epsilon_schedule=None,
        seed=None,
    ) -> None:
        """``buffer`` optionally injects a replay implementation (e.g.
        :class:`repro.rl.prioritized.PrioritizedReplayBuffer`); anything
        with bind_fixed_block/push/sample_batch returning a
        :class:`~repro.rl.replay.TransitionBatch` — and optionally
        last_sample_weights / update_priorities for prioritized variants —
        works.

        ``epsilon_schedule`` optionally overrides the config's
        multiplicative decay with an explicit
        :class:`repro.rl.schedules.EpsilonSchedule`, evaluated on the
        episode counter."""
        if state_dim < 1 or n_actions < 1:
            raise ConfigurationError("state_dim and n_actions must be >= 1")
        self.state_dim = int(state_dim)
        self.n_actions = int(n_actions)
        self.config = config if config is not None else DQNConfig()
        rng = as_rng(seed)
        layer_sizes = (self.state_dim, *self.config.hidden_sizes, self.n_actions)
        self.online = MLP(
            layer_sizes,
            optimizer=Adam(learning_rate=self.config.learning_rate),
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        self.target = MLP(layer_sizes, seed=int(rng.integers(0, 2**31 - 1)))
        self.target.copy_from(self.online)
        self.buffer = buffer if buffer is not None else ReplayBuffer(
            self.config.buffer_capacity, n_actions=self.n_actions, seed=rng
        )
        self.epsilon_schedule = epsilon_schedule
        self.epsilon = (
            epsilon_schedule(0) if epsilon_schedule is not None else self.config.epsilon_start
        )
        self._rng = rng
        self._steps = 0
        self._episodes = 0
        # Pre-register the agent's metric families so /metrics scrapes show
        # them at zero before the first training event instead of omitting
        # them (the inc/set call sites re-fetch the same children).
        registry = get_registry()
        registry.counter(
            "repro_rl_dqn_train_steps_total", help="DQN gradient steps taken"
        )
        registry.counter(
            "repro_rl_dqn_episodes_total", help="DQN training episodes completed"
        )
        registry.gauge("repro_rl_dqn_loss", help="Latest DQN batch loss")
        registry.gauge("repro_rl_dqn_epsilon", help="Current exploration rate")
        registry.gauge(
            "repro_rl_replay_size", help="Transitions held in the replay buffer"
        )
        registry.gauge(
            "repro_rl_dqn_episode_return", help="Latest training-episode return"
        )

    # ------------------------------------------------------------------
    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.online.forward(state.reshape(1, -1)).ravel()

    def act(self, state: np.ndarray, feasible: np.ndarray, *, greedy: bool = False) -> int:
        if feasible.size == 0:
            raise ConfigurationError("no feasible actions to act on")
        if not greedy and self._rng.random() < self.epsilon:
            return int(self._rng.choice(feasible))
        values = self.q_values(state)
        mask = np.full(self.n_actions, MASKED_Q)
        mask[feasible] = values[feasible]
        return int(np.argmax(mask))

    # ------------------------------------------------------------------
    def train_step(self) -> float | None:
        """One gradient step on a replay batch; None during warmup."""
        if len(self.buffer) < self.config.warmup_transitions:
            return None
        batch = self.buffer.sample_batch(self.config.batch_size)
        count = len(batch)

        mask = np.where(batch.feasible_mask, 0.0, MASKED_Q)
        target_q = self.target.forward(batch.next_states) + mask
        if self.config.double_q:
            # Double DQN: online net picks the action, target net scores it.
            online_q = self.online.forward(batch.next_states) + mask
            chosen = online_q.argmax(axis=1)
            best_next = target_q[np.arange(count), chosen]
        else:
            best_next = target_q.max(axis=1)
        best_next[batch.dones] = 0.0
        # One forward serves both the TD-error readout and the gradient
        # step below (train_from_cache) — 3 forwards/step down to 2.
        predictions = self.online.forward(batch.states, cache=True)
        targets = predictions.copy()
        rows = np.arange(count)
        bellman = batch.rewards + self.config.gamma * best_next
        td_errors = bellman - predictions[rows, batch.actions]
        if hasattr(self.buffer, "update_priorities"):
            self.buffer.update_priorities(td_errors)
            # Importance-sampling correction: scale each transition's
            # residual by its IS weight (exact for squared loss, whose
            # gradient is linear in the residual).
            weights = self.buffer.last_sample_weights()
            targets[rows, batch.actions] = predictions[rows, batch.actions] + weights * td_errors
        else:
            targets[rows, batch.actions] = bellman
        loss = self.online.train_from_cache(targets)
        registry = get_registry()
        registry.counter(
            "repro_rl_dqn_train_steps_total", help="DQN gradient steps taken"
        ).inc()
        registry.gauge("repro_rl_dqn_loss", help="Latest DQN batch loss").set(loss)
        return loss

    def train_episode(self, env: AllocationEnv) -> float:
        """Collect one episode into replay, training as transitions arrive."""
        state = env.reset()
        self.buffer.bind_fixed_block(*env.fixed_block())
        episode_return = 0.0
        while not env.done:
            feasible = env.feasible_actions()
            action = self.act(state, feasible)
            next_state, reward, done, _ = env.step(action)
            next_feasible = env.feasible_actions() if not done else np.array([], dtype=int)
            self.buffer.push(
                Transition(
                    state=state,
                    action=action,
                    reward=reward,
                    next_state=next_state,
                    done=done,
                    next_feasible=next_feasible,
                )
            )
            self._steps += 1
            if self._steps % self.config.train_every == 0:
                self.train_step()
            if self._steps % self.config.target_sync_every == 0:
                self.target.copy_from(self.online)
            episode_return += reward
            state = next_state
        self._episodes += 1
        if self.epsilon_schedule is not None:
            self.epsilon = self.epsilon_schedule(self._episodes)
        else:
            self.epsilon = max(
                self.config.epsilon_end, self.epsilon * self.config.epsilon_decay
            )
        registry = get_registry()
        registry.counter(
            "repro_rl_dqn_episodes_total", help="DQN training episodes completed"
        ).inc()
        registry.gauge("repro_rl_dqn_epsilon", help="Current exploration rate").set(
            self.epsilon
        )
        registry.gauge(
            "repro_rl_replay_size", help="Transitions held in the replay buffer"
        ).set(len(self.buffer))
        registry.gauge(
            "repro_rl_dqn_episode_return", help="Latest training-episode return"
        ).set(episode_return)
        return episode_return

    def train(self, env: AllocationEnv, episodes: int) -> np.ndarray:
        """Train for ``episodes`` episodes; returns per-episode returns."""
        if episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
        with span("rl.dqn.train", episodes=episodes):
            return np.array([self.train_episode(env) for _ in range(episodes)])

    def solve(self, env: AllocationEnv) -> Allocation:
        """Greedy rollout: the fast inference phase of Algorithm 1."""
        state = env.reset()
        while not env.done:
            action = self.act(state, env.feasible_actions(), greedy=True)
            state, _, _, _ = env.step(action)
        return env.allocation()

    def solve_greedy_batch(self, envs) -> list[Allocation]:
        """Greedy rollouts over many instances, stepped in lockstep.

        Accepts a sequence of :class:`AllocationEnv` (or a prebuilt
        :class:`BatchedAllocationEnv`) sharing this agent's geometry and
        returns one :class:`Allocation` per episode. Each step runs one
        row-isolated batched forward (:meth:`MLP.forward_rows`) plus one
        masked argmax over the feasibility matrix, so the returned
        allocations are byte-identical to calling :meth:`solve` per env
        in a loop — at a fraction of the per-rollout overhead. Episodes
        that finish early simply drop out of the live set.
        """
        if isinstance(envs, BatchedAllocationEnv):
            batch = envs
            batch.reset()
        else:
            envs = list(envs)
            if not envs:
                return []
            batch = BatchedAllocationEnv([env.problem for env in envs])
        with span("rl.dqn.solve_batch", episodes=len(batch)):
            while True:
                rows = np.flatnonzero(~batch.done_mask)
                if rows.size == 0:
                    break
                values = self.online.forward_rows(batch.states[rows])
                masked = np.where(batch.feasible_mask[rows], values, MASKED_Q)
                batch.step(masked.argmax(axis=1), rows=rows, check=False)
        return [batch.allocation(row) for row in range(len(batch))]
