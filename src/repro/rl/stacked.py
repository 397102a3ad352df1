"""Lockstep multi-agent DQN training through cross-agent batched kernels.

CRL trains one DQN per environment cluster (Algorithm 1's training
phase); the agents are fully independent — separate environments, replay
buffers, RNG streams and optimizers — so the serial loop "train agent 1
to completion, then agent 2, …" leaves an obvious multiple on the table:
at every step, all agents run the *same* network shapes over the *same*
state layout. :class:`LockstepTrainer` advances all agents one step at a
time instead, fusing the per-step work across agents:

- **Acting** — one :meth:`StackedNetworks.forward_rows` call computes
  every agent's Q-row (bit-for-bit each agent's own single-state
  forward); the ε-greedy draws stay per-agent, consuming each agent's
  RNG exactly as its serial ``act`` would.
- **Environment stepping** — all agents' episodes live in one
  :class:`BatchedAllocationEnv`, stepped with one vectorized pass.
- **Training** — when every agent is due a gradient step (the common
  case: identical configs keep step counters in sync), the replay
  batches are stacked and one ``(A, batch, ·)`` forward/backward +
  stacked Adam step trains all online networks at once.

Because the agents are independent and every fused kernel is bitwise
identical to its per-agent form (see ``ml/neural.py`` /
``rl/env.py``), interleaving their steps does not change any agent's
arithmetic: the trained agents are **byte-identical** to serially
trained ones. Heterogeneous setups (different configs, prioritized
replay, injected buffers) transparently fall back to per-agent
micro-steps inside the same lockstep loop, preserving that contract.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.neural import StackedNetworks
from repro.rl.dqn import MASKED_Q, DQNAgent
from repro.rl.env import BatchedAllocationEnv
from repro.rl.replay import ReplayBuffer, Transition
from repro.telemetry import get_registry, span

__all__ = ["LockstepTrainer"]

#: Shared empty feasible-index array for terminal transitions.
_NO_FEASIBLE = np.array([], dtype=int)


class LockstepTrainer:
    """Train several independent DQN agents in lockstep (see module docs).

    Parameters
    ----------
    agents:
        The :class:`DQNAgent` instances to train. They may be freshly
        constructed or mid-training (replay contents and step counters
        are respected).
    problems:
        One TATIM instance per agent (all sharing a geometry); agent
        ``i`` trains on episodes of ``problems[i]``.
    episodes:
        Episode budget — an int applied to every agent, or one int per
        agent.
    """

    def __init__(self, agents, problems, *, episodes) -> None:
        self.agents: list[DQNAgent] = list(agents)
        self.problems = list(problems)
        if not self.agents or len(self.agents) != len(self.problems):
            raise ConfigurationError(
                f"need one problem per agent, got {len(self.agents)} agents "
                f"and {len(self.problems)} problems"
            )
        count = len(self.agents)
        if isinstance(episodes, (int, np.integer)):
            self._episodes = np.full(count, int(episodes))
        else:
            self._episodes = np.asarray(list(episodes), dtype=int)
            if self._episodes.size != count:
                raise ConfigurationError("need one episode budget per agent")
        if np.any(self._episodes < 1):
            raise ConfigurationError("episode budgets must be >= 1")

    # ------------------------------------------------------------------
    def _fusable(self) -> bool:
        """Whether the fused cross-agent training step may engage.

        Conservative and static: identical configs (so step counters,
        train cadence and batch sizes stay in sync while all agents are
        live), plain uniform replay (the fused step gathers straight into
        its stacked arrays and must not touch prioritized bookkeeping),
        and ``warmup >= batch_size`` (so every
        sampled batch has exactly ``batch_size`` rows).
        """
        first = self.agents[0]
        for agent in self.agents:
            if agent.config != first.config:
                return False
            buffer = agent.buffer
            if not isinstance(buffer, ReplayBuffer) or hasattr(
                buffer, "update_priorities"
            ):
                return False
        return first.config.warmup_transitions >= first.config.batch_size

    def train(self) -> list[np.ndarray]:
        """Run every agent to its episode budget; per-agent episode returns."""
        agents = self.agents
        count = len(agents)
        env = BatchedAllocationEnv(self.problems)
        for a, agent in enumerate(agents):
            agent.buffer.bind_fixed_block(*env.fixed_block(a))
        online_stack: StackedNetworks | None = None
        target_stack: StackedNetworks | None = None
        joint_stack: StackedNetworks | None = None
        fused = count > 1 and self._fusable()
        if count > 1:
            try:
                if fused:
                    # One parameter block spans online AND target nets, so
                    # the fused step's two forwards collapse into a single
                    # batched matmul chain over 2A members.
                    joint_stack = StackedNetworks(
                        [agent.online for agent in agents]
                        + [agent.target for agent in agents]
                    )
                    online_stack = joint_stack.substack(
                        0, count, stack_optimizers=True
                    )
                    target_stack = joint_stack.substack(count, 2 * count)
                else:
                    online_stack = StackedNetworks([agent.online for agent in agents])
            except ConfigurationError:
                if joint_stack is not None:
                    joint_stack.release()
                online_stack = target_stack = joint_stack = None
                fused = False
        fused = fused and joint_stack is not None
        remaining = self._episodes.copy()
        episode_returns: list[list[float]] = [[] for _ in range(count)]
        current_return = np.zeros(count)
        active = np.ones(count, dtype=bool)
        # Plain uniform buffers take the column-direct push (the sampled
        # batches are byte-identical); prioritized/injected buffers keep
        # the Transition path so their bookkeeping still runs.
        column_push = [
            isinstance(agent.buffer, ReplayBuffer)
            and not hasattr(agent.buffer, "update_priorities")
            for agent in agents
        ]
        if fused:
            config = agents[0].config
            batch_size = config.batch_size
            # The joint input block: rows 0..A-1 carry the sampled states
            # (online members), rows A..2A-1 the next-states (target
            # members) — the per-agent sample lands directly in both.
            joint_x = np.empty((2 * count, batch_size, env.state_dim))
            self._batch_buffers = (
                joint_x[:count],
                np.empty((count, batch_size), dtype=int),
                np.empty((count, batch_size)),
                joint_x[count:],
                np.empty((count, batch_size), dtype=bool),
                np.empty((count, batch_size, agents[0].n_actions), dtype=bool),
                joint_x,
            )
            self._joint_stack = joint_stack
        registry = get_registry()
        try:
            with span(
                "rl.dqn.train_lockstep",
                agents=count,
                episodes=int(self._episodes.sum()),
                fused=fused,
            ):
                rows = np.flatnonzero(active)
                row_list = [int(a) for a in rows]
                while active.any():
                    all_live = rows.size == count
                    # --- Phase 1: ε-greedy action per live agent. The
                    # per-agent draws replicate DQNAgent.act exactly
                    # (random → choice immediately when exploring); greedy
                    # picks are deferred so the stacked forward + masked
                    # argmax runs only on steps where somebody actually
                    # went greedy — with ε starting at 1.0, most early
                    # steps skip the network entirely, just like the
                    # serial act. Greedy fills consume no RNG, so the
                    # deferral cannot perturb any agent's stream.
                    actions = np.empty(rows.size, dtype=int)
                    pending: list[tuple[int, int]] = []
                    for j, a in enumerate(row_list):
                        agent = agents[a]
                        if agent._rng.random() < agent.epsilon:
                            actions[j] = int(agent._rng.choice(env.feasible_row(a)))
                        else:
                            pending.append((j, a))
                    if pending:
                        if online_stack is not None and all_live:
                            q_rows = online_stack.forward_rows(env.states)
                            greedy = np.where(
                                env.feasible_mask, q_rows, MASKED_Q
                            ).argmax(axis=1)
                            for j, a in pending:
                                actions[j] = int(greedy[a])
                        else:
                            for j, a in pending:
                                agent = agents[a]
                                feasible = env.feasible_row(a)
                                values = agent.q_values(env.states[a])
                                mask = np.full(agent.n_actions, MASKED_Q)
                                mask[feasible] = values[feasible]
                                actions[j] = int(np.argmax(mask))
                    # --- Phase 2: one vectorized env pass, then per-agent
                    # replay pushes (buffers copy rows into columns; the
                    # env's post-step legality rows double as the stored
                    # next-feasible masks, all-False on terminal rows).
                    states_before = env.state_rows(rows)
                    rewards, dones = env.step(actions, rows=rows, check=False)
                    mask_rows = env.feasible_mask
                    for j, a in enumerate(row_list):
                        agent = agents[a]
                        done = bool(dones[j])
                        if column_push[a]:
                            agent.buffer.push_columns(
                                states_before[j],
                                int(actions[j]),
                                float(rewards[j]),
                                env.states[a],
                                done,
                                mask_rows[a],
                            )
                        else:
                            agent.buffer.push(
                                Transition(
                                    state=states_before[j],
                                    action=int(actions[j]),
                                    reward=float(rewards[j]),
                                    next_state=env.state_row(a),
                                    done=done,
                                    next_feasible=env.feasible_row(a)
                                    if not done
                                    else _NO_FEASIBLE,
                                )
                            )
                        agent._steps += 1
                        current_return[a] += rewards[j]
                    # --- Phase 3: gradient steps. Fused when *every*
                    # agent is due and past warmup, else per-agent (the
                    # exact serial train_step).
                    due = [
                        a
                        for a in row_list
                        if agents[a]._steps % agents[a].config.train_every == 0
                    ]
                    ready = [
                        a
                        for a in due
                        if len(agents[a].buffer)
                        >= agents[a].config.warmup_transitions
                    ]
                    if fused and len(ready) == count:
                        self._fused_train_step(online_stack, target_stack, registry)
                    else:
                        for a in due:
                            agents[a].train_step()
                    for a in row_list:
                        agent = agents[a]
                        if agent._steps % agent.config.target_sync_every == 0:
                            agent.target.copy_from(agent.online)
                    # --- Phase 4: episode boundaries.
                    if not dones.any():
                        continue
                    for j, a in enumerate(row_list):
                        if not dones[j]:
                            continue
                        agent = agents[a]
                        agent._episodes += 1
                        if agent.epsilon_schedule is not None:
                            agent.epsilon = agent.epsilon_schedule(agent._episodes)
                        else:
                            agent.epsilon = max(
                                agent.config.epsilon_end,
                                agent.epsilon * agent.config.epsilon_decay,
                            )
                        episode_return = float(current_return[a])
                        episode_returns[a].append(episode_return)
                        current_return[a] = 0.0
                        registry.counter(
                            "repro_rl_dqn_episodes_total",
                            help="DQN training episodes completed",
                        ).inc()
                        registry.gauge(
                            "repro_rl_dqn_epsilon", help="Current exploration rate"
                        ).set(agent.epsilon)
                        registry.gauge(
                            "repro_rl_replay_size",
                            help="Transitions held in the replay buffer",
                        ).set(len(agent.buffer))
                        registry.gauge(
                            "repro_rl_dqn_episode_return",
                            help="Latest training-episode return",
                        ).set(episode_return)
                        remaining[a] -= 1
                        if remaining[a] > 0:
                            env.reset(rows=np.array([a]))
                        else:
                            active[a] = False
                            rows = np.flatnonzero(active)
                            row_list = [int(r) for r in rows]
        finally:
            if online_stack is not None:
                online_stack.release()
            if target_stack is not None:
                target_stack.release()
        return [np.array(r) for r in episode_returns]

    # ------------------------------------------------------------------
    def _fused_train_step(
        self,
        online_stack: StackedNetworks,
        target_stack: StackedNetworks,
        registry,
    ) -> None:
        """One stacked gradient step across all agents.

        Mirrors :meth:`DQNAgent.train_step` op for op on the stacked
        (agents, batch, ·) arrays; every kernel is per-slice bitwise
        equal to its 2-D form, so each agent's parameter update is
        byte-identical to its own serial step on the same sample.
        """
        agents = self.agents
        config = agents[0].config
        states, actions, rewards, next_states, dones, feasible, joint_x = (
            self._batch_buffers
        )
        for a, agent in enumerate(agents):
            agent.buffer.sample_batch_into(
                config.batch_size,
                (states[a], actions[a], rewards[a], next_states[a], dones[a], feasible[a]),
            )
        count = config.batch_size
        n_agents = len(agents)
        mask = np.where(feasible, 0.0, MASKED_Q)
        # One joint forward: rows 0..A-1 are the online predictions on the
        # sampled states, rows A..2A-1 the target Q-values on next-states
        # — per-slice bitwise equal to the two separate forwards.
        joint_out = self._joint_stack.forward(joint_x, cache=True)
        predictions = joint_out[:n_agents]
        target_q = joint_out[n_agents:]
        target_q += mask
        agent_index = np.arange(n_agents)[:, None]
        if config.double_q:
            online_q = online_stack.forward(next_states)
            online_q += mask
            chosen = online_q.argmax(axis=2)
            best_next = target_q[agent_index, np.arange(count)[None, :], chosen]
        else:
            best_next = target_q.max(axis=2)
        best_next[dones] = 0.0
        online_stack.adopt_cache(self._joint_stack, 0, n_agents)
        targets = predictions.copy()
        bellman = rewards + (config.gamma * best_next)
        targets[agent_index, np.arange(count)[None, :], actions] = bellman
        losses = online_stack.train_from_cache(targets)
        steps = registry.counter(
            "repro_rl_dqn_train_steps_total", help="DQN gradient steps taken"
        )
        loss_gauge = registry.gauge("repro_rl_dqn_loss", help="Latest DQN batch loss")
        for loss in losses:
            steps.inc()
            loss_gauge.set(float(loss))
