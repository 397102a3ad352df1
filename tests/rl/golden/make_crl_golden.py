"""Regenerate the CRL training identity golden.

Run from the repo root::

    PYTHONPATH=src python tests/rl/golden/make_crl_golden.py

The golden pins a SHA-256 over every trained agent's state (online and
target parameters, exploration epsilon, step count) for two CRL
training rounds: an offline four-cluster :meth:`CRLModel.fit` and an
online-mode :meth:`CRLModel.warm_online_agents`. Both rounds train their
agents together in one lockstep-stacked pass; the digests were first
recorded when a round could also fan its agents out over worker
processes, and both paths gave these values. Regenerating is only
legitimate for a deliberate algorithm change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.rl.crl import CRLModel, EnvironmentStore
from repro.rl.dqn import DQNConfig
from repro.tatim.generators import random_instance

GOLDEN_PATH = Path(__file__).resolve().parent / "crl_golden.json"

#: Four well-separated regimes of six days each: k-means recovers one
#: cluster per regime, so the offline fit trains four agents.
N_TASKS, N_PROCESSORS, REGIMES, DAYS_PER_REGIME, SEED = 10, 3, 4, 6, 3
EPISODES = 20
CONFIG = DQNConfig(hidden_sizes=(16,))


def agents_sha256(agents) -> str:
    """Digest of every agent's trained state, in the given order."""
    digest = hashlib.sha256()
    for agent in agents:
        digest.update(np.ascontiguousarray(agent.online._flat_params).tobytes())
        digest.update(np.ascontiguousarray(agent.target._flat_params).tobytes())
        digest.update(np.float64(agent.epsilon).tobytes())
        digest.update(np.int64(agent._steps).tobytes())
    return digest.hexdigest()


def make_store() -> EnvironmentStore:
    rng = np.random.default_rng(SEED)
    bases = [np.abs(rng.normal(size=N_TASKS)) for _ in range(REGIMES)]
    store = EnvironmentStore()
    for day in range(REGIMES * DAYS_PER_REGIME):
        regime = day % REGIMES
        store.add(
            rng.normal(6.0 * regime, 0.3, size=4),
            bases[regime] * (1 + 0.1 * rng.normal(size=N_TASKS)),
        )
    return store


def queries() -> list[np.ndarray]:
    """One query per regime centre, plus a near-duplicate of the first."""
    rows = [np.full(4, 6.0 * regime) for regime in range(REGIMES)]
    return rows + [rows[0] + 1e-9]


def run_cases() -> dict:
    geometry = random_instance(N_TASKS, N_PROCESSORS, seed=SEED)
    offline = CRLModel(
        geometry,
        n_clusters=REGIMES,
        episodes=EPISODES,
        dqn_config=CONFIG,
        seed=0,
    ).fit(make_store())
    online = CRLModel(
        geometry,
        mode="online",
        knn_k=3,
        episodes=EPISODES,
        dqn_config=CONFIG,
        seed=0,
    ).fit(make_store())
    warmed = online.warm_online_agents(queries())
    return {
        "offline_fit": {
            "agents": len(offline._cluster_agents),
            "sha256": agents_sha256(
                offline._cluster_agents[key] for key in sorted(offline._cluster_agents)
            ),
        },
        "online_warm": {
            "agents": warmed,
            "keys": [list(key) for key in online._online_agents],
            "sha256": agents_sha256(online._online_agents.values()),
        },
    }


def main() -> None:
    golden = {
        "config": {
            "n_tasks": N_TASKS,
            "n_processors": N_PROCESSORS,
            "regimes": REGIMES,
            "days_per_regime": DAYS_PER_REGIME,
            "episodes": EPISODES,
            "seed": SEED,
        },
        **run_cases(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
