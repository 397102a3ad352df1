"""Regenerate the CRL query golden.

Run from the repo root::

    PYTHONPATH=src python tests/rl/golden/make_crl_query_golden.py

The golden pins what Algorithm 1's prediction phase answers, query by
query: the SHA-256 of every ``CRLModel.allocate(z).matrix``, the
``float.hex`` of every ``selection_scores(z)`` entry, the
``allocate_batch`` matrices on a fresh online model (which fixes the
order lazy agent training draws from the model RNG), the
``CRLAllocator.plan`` / ``DCTAAllocator.plan`` assignments, and the
totals of the four ``repro_rl_crl_*`` counters (agents trained,
rollouts, allocations answered, kNN lookups). Each case runs offline
(k-means, four clusters) and online (lazy kNN agents), with and without
an ambient :class:`~repro.tatim.cache.AllocationCache`, over a query
list with repeats. Regenerating is only legitimate for a deliberate
algorithm change.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.allocation.base import EpochContext, tatim_from_workload
from repro.allocation.crl_policy import CRLAllocator
from repro.allocation.dcta import DCTAAllocator
from repro.allocation.local import LocalProcess
from repro.edgesim.testbed import scaled_testbed
from repro.edgesim.workload import SimTask
from repro.rl.crl import CRLModel, EnvironmentStore
from repro.rl.dqn import DQNConfig
from repro.tatim.cache import AllocationCache, use_allocation_cache
from repro.telemetry import MetricsRegistry, use_registry

GOLDEN_PATH = Path(__file__).resolve().parent / "crl_query_golden.json"

#: Four well-separated regimes of five days each over a ten-task,
#: three-processor workload.
N_TASKS, N_PROCESSORS, REGIMES, DAYS_PER_REGIME, SEED = 10, 3, 4, 5, 11
EPISODES = 12
CONFIG = DQNConfig(hidden_sizes=(16,))

COUNTERS = (
    "repro_rl_crl_agents_trained_total",
    "repro_rl_crl_rollouts_total",
    "repro_rl_crl_allocations_total",
    "repro_rl_crl_knn_lookups_total",
)


def make_workload():
    rng = np.random.default_rng(SEED)
    tasks = [
        SimTask(
            task_id=j,
            input_mb=float(rng.uniform(2.0, 8.0)),
            memory_mb=float(rng.uniform(20.0, 120.0)),
            true_importance=float(rng.random()),
        )
        for j in range(N_TASKS)
    ]
    nodes, _ = scaled_testbed(N_PROCESSORS)
    return tasks, nodes


def make_store() -> EnvironmentStore:
    rng = np.random.default_rng(SEED + 1)
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
    """Regime centres, an off-centre point, and exact and near repeats."""
    rng = np.random.default_rng(SEED + 2)
    centres = [np.full(4, 6.0 * regime) for regime in range(REGIMES)]
    between = np.full(4, 9.0)
    return [
        centres[0],
        centres[2],
        centres[0].copy(),
        between,
        centres[1],
        centres[2] + 1e-9,
        centres[3],
        between.copy(),
        centres[0] + rng.normal(0.0, 0.2, size=4),
    ]


def make_local_process() -> LocalProcess:
    rng = np.random.default_rng(SEED + 3)
    features = [rng.normal(size=(N_TASKS, 3)) for _ in range(6)]
    labels = [(f[:, 0] + 0.3 * f[:, 1] > 0).astype(int) for f in features]
    return LocalProcess().fit(features, labels)


def matrix_sha256(allocation) -> str:
    return hashlib.sha256(np.ascontiguousarray(allocation.matrix).tobytes()).hexdigest()


def counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    totals = {}
    for family in registry.families():
        if family.name in COUNTERS:
            totals[family.name] = float(
                sum(child.value for child in family.children.values())
            )
    return {name: totals.get(name, 0.0) for name in COUNTERS}


def make_model(geometry, mode: str) -> CRLModel:
    return CRLModel(
        geometry,
        mode=mode,
        n_clusters=REGIMES,
        knn_k=3,
        episodes=EPISODES,
        dqn_config=CONFIG,
        seed=0,
    ).fit(make_store())


def ambient_cache(cached: bool):
    """A fresh ambient allocation cache, or none."""
    return use_allocation_cache(AllocationCache()) if cached else nullcontext()


def run_case(mode: str, cached: bool) -> dict:
    tasks, nodes = make_workload()
    geometry = tatim_from_workload(tasks, nodes)
    local = make_local_process()
    rows = queries()
    features = np.random.default_rng(SEED + 4).normal(size=(N_TASKS, 3))
    registry = MetricsRegistry()
    with use_registry(registry):
        with ambient_cache(cached):
            model = make_model(geometry, mode)
            allocations = [matrix_sha256(model.allocate(z)) for z in rows]
            scores = [[float(s).hex() for s in model.selection_scores(z)] for z in rows]
            crl = CRLAllocator(model)
            dcta = DCTAAllocator(model, local, w1=0.6, w2=0.4)
            plans = {"CRL": [], "DCTA": []}
            for z in rows[:4]:
                context = EpochContext(sensing=z, features=features)
                plans["CRL"].append(
                    [list(pair) for pair in crl.plan(tasks, nodes, context).assignments]
                )
                plans["DCTA"].append(
                    [list(pair) for pair in dcta.plan(tasks, nodes, context).assignments]
                )
        query_counters = counter_totals(registry)
        # A second cache: the first already holds answers keyed on the same
        # store version, which would turn every batch query into a hit.
        with ambient_cache(cached):
            fresh = make_model(geometry, "online")
            batch = [matrix_sha256(a) for a in fresh.allocate_batch(rows)]
    return {
        "allocate_sha256": allocations,
        "selection_scores_hex": scores,
        "plans": plans,
        "counters": query_counters,
        "online_batch_sha256": batch,
        "online_batch_agents": len(fresh._online_agents),
        "counters_after_batch": counter_totals(registry),
    }


def run_cases() -> dict:
    return {
        f"{mode}_{'cached' if cached else 'uncached'}": run_case(mode, cached)
        for mode in ("offline", "online")
        for cached in (False, True)
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
        "cases": run_cases(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
