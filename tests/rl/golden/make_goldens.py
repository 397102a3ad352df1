"""Regenerate the DQN byte-identity goldens.

Run from the repo root::

    PYTHONPATH=src python tests/rl/golden/make_goldens.py

The goldens pin the *exact* floating-point trajectory of DQN training on
fixed seeds: per-episode returns (as IEEE-754 hex, so comparison is
bitwise, not approximate), the final greedy allocation, and a SHA-256
over the online network's parameters. The kernel refactors (incremental
env state buffer, SoA replay, fused forward/backward) are contractually
*data-layout* changes — same seeds must produce the same RNG stream and
the same arithmetic in the same order — so these values must never move.
Regenerating is only legitimate for a deliberate algorithm change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.stacked import LockstepTrainer
from repro.tatim.generators import random_instance

GOLDEN_PATH = Path(__file__).resolve().parent / "dqn_golden.json"

#: Small enough to train in ~a second, big enough that replay wraps the
#: warmup and every code path (mask scatter, Bellman max, Adam) runs.
N_TASKS, N_PROCESSORS, EPISODES, SEED = 12, 3, 40, 7

#: The stacked tier: enough agents that the joint online+target stack is
#: non-trivial, enough episodes that fused steps, target syncs, and the
#: per-agent tail (agents finishing their budgets at different steps)
#: all execute.
STACKED_AGENTS, STACKED_EPISODES = 3, 25


def parameters_sha256(mlp) -> str:
    digest = hashlib.sha256()
    for array in mlp.get_parameters():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_case(name: str, *, double_q: bool = False, prioritized: bool = False) -> dict:
    problem = random_instance(N_TASKS, N_PROCESSORS, seed=SEED)
    env = AllocationEnv(problem)
    config = DQNConfig(
        hidden_sizes=(32, 16),
        batch_size=16,
        warmup_transitions=32,
        target_sync_every=50,
        double_q=double_q,
    )
    buffer = (
        PrioritizedReplayBuffer(config.buffer_capacity, n_actions=env.n_actions, seed=123)
        if prioritized
        else None
    )
    agent = DQNAgent(env.state_dim, env.n_actions, config, buffer=buffer, seed=SEED)
    returns = agent.train(env, EPISODES)
    allocation = agent.solve(AllocationEnv(problem))
    return {
        "returns_hex": [float(r).hex() for r in returns],
        "assignment": {str(k): int(v) for k, v in sorted(allocation.as_assignment().items())},
        "online_params_sha256": parameters_sha256(agent.online),
        "final_epsilon_hex": float(agent.epsilon).hex(),
    }


def run_stacked_case() -> dict:
    """Lockstep multi-agent training + batched greedy rollouts, pinned.

    The cross-agent stacked kernels (joint online+target forward, fused
    backward, stacked Adam, column-direct replay pushes, batched env
    stepping) are contractually byte-identical to per-agent serial
    training, so this tier must never move either.
    """
    problems = [
        random_instance(N_TASKS, N_PROCESSORS, seed=SEED + i)
        for i in range(STACKED_AGENTS)
    ]
    config = DQNConfig(
        hidden_sizes=(32, 16),
        batch_size=16,
        warmup_transitions=32,
        target_sync_every=50,
    )
    agents = []
    for i, problem in enumerate(problems):
        env = AllocationEnv(problem)
        agents.append(
            DQNAgent(env.state_dim, env.n_actions, config, seed=SEED + 100 + i)
        )
    returns = LockstepTrainer(agents, problems, episodes=STACKED_EPISODES).train()
    allocations = agents[0].solve_greedy_batch(
        [AllocationEnv(problem) for problem in problems]
    )
    return {
        "returns_hex": [[float(r).hex() for r in per_agent] for per_agent in returns],
        "online_params_sha256": [parameters_sha256(a.online) for a in agents],
        "target_params_sha256": [parameters_sha256(a.target) for a in agents],
        "final_epsilon_hex": [float(a.epsilon).hex() for a in agents],
        "batch_assignments": [
            {str(k): int(v) for k, v in sorted(a.as_assignment().items())}
            for a in allocations
        ],
    }


def main() -> None:
    golden = {
        "config": {
            "n_tasks": N_TASKS,
            "n_processors": N_PROCESSORS,
            "episodes": EPISODES,
            "seed": SEED,
            "stacked_agents": STACKED_AGENTS,
            "stacked_episodes": STACKED_EPISODES,
        },
        "uniform": run_case("uniform"),
        "double_q": run_case("double_q", double_q=True),
        "prioritized": run_case("prioritized", prioritized=True),
        "stacked": run_stacked_case(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
