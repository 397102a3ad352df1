"""Ablation — uniform vs. prioritized experience replay.

With terminal-only rewards, most replayed transitions carry no direct
signal; prioritized replay over-samples the high-TD-error ones. This
ablation trains matched DQN agents with each buffer on the same instances
and compares final allocation quality at a small episode budget.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.tatim.exact import branch_and_bound
from repro.tatim.generators import longtail_instance
from repro.utils.reporting import format_table

EPISODES = 120


def test_ablation_replay_strategy(benchmark):
    def experiment():
        rows = []
        for seed in range(4):
            problem = longtail_instance(10, 2, seed=seed)
            optimal = branch_and_bound(problem).objective(problem)
            scores = {}
            for label in ("uniform", "prioritized"):
                env = AllocationEnv(problem)
                buffer = None
                if label == "prioritized":
                    buffer = PrioritizedReplayBuffer(
                        capacity=20_000, n_actions=env.n_actions, seed=seed
                    )
                agent = DQNAgent(
                    env.state_dim,
                    env.n_actions,
                    DQNConfig(hidden_sizes=(64, 32), warmup_transitions=100),
                    buffer=buffer,
                    seed=seed,
                )
                agent.train(env, EPISODES)
                scores[label] = agent.solve(env).objective(problem) / optimal
            rows.append((seed, scores["uniform"], scores["prioritized"]))
        return rows

    rows = run_once(benchmark, experiment)

    print()
    print(
        format_table(
            ["instance seed", "uniform (frac of opt)", "prioritized (frac of opt)"],
            [list(r) for r in rows],
            title=f"Ablation — replay strategy at {EPISODES} episodes",
        )
    )
    uniform_mean = float(np.mean([r[1] for r in rows]))
    prioritized_mean = float(np.mean([r[2] for r in rows]))
    print(f"\nmeans: uniform {uniform_mean:.3f}, prioritized {prioritized_mean:.3f}")

    # At this tight budget, prioritizing the rare reward-bearing
    # transitions clearly pays; uniform replay is still learning.
    assert prioritized_mean > 0.75
    assert prioritized_mean >= uniform_mean - 0.05
    assert uniform_mean > 0.4
