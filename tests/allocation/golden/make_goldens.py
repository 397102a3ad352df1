"""Regenerate the task-dependency-graph golden.

Run from the repo root::

    PYTHONPATH=src python tests/allocation/golden/make_goldens.py

The golden pins what :class:`~repro.allocation.dependencies.TaskDependencyGraph`
answers on 50 seeded random DAGs of 1-30 tasks. Task ids are
non-contiguous and given in shuffled order, some tasks are isolated, the
edges arrive in shuffled order and a few arrive twice. For each graph it
records ``n_tasks``, ``n_dependencies``, ``generations()``,
``ancestors_of(t)`` for every task, ``effective_importance`` and the
priorities fed to ``order_respecting`` as ``float.hex``,
``order_respecting`` itself, and ``violations()`` of a shuffled and of a
truncated completion order. Priorities of every other graph are drawn
from four levels, so ties in ``order_respecting`` are pinned too. It
also records the error type and message of a dependency that closes a
cycle, of a self-loop and of an unknown task.

Iteration orders are part of the pin: ``order_respecting`` breaks
priority ties by the order tasks became ready (successors in
edge-insertion order) and ``violations()`` lists edges grouped by
prerequisite in task-insertion order. Regenerating is only legitimate
for a deliberate change to what the graph answers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.allocation.dependencies import TaskDependencyGraph

GOLDEN_PATH = Path(__file__).resolve().parent / "dependencies_golden.json"

N_GRAPHS = 50
MAX_TASKS = 30


def graph_inputs(seed: int) -> dict:
    """The task ids, edges, importance and priorities of graph ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, MAX_TASKS + 1))
    task_ids = [int(t) for t in rng.choice(1000, size=n, replace=False)]
    # Edges follow a random topological order over the non-isolated tasks.
    n_isolated = int(rng.integers(0, n // 3 + 1))
    linked = [int(t) for t in rng.permutation(task_ids)[n_isolated:]]
    density = float(rng.uniform(0.05, 0.4))
    edges = [
        (linked[i], linked[j])
        for i in range(len(linked))
        for j in range(i + 1, len(linked))
        if rng.random() < density
    ]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    if edges:
        edges += [edges[int(k)] for k in rng.integers(0, len(edges), size=2)]
    importance = rng.random(n)
    if seed % 2:
        priorities = rng.integers(0, 4, size=n) / 4.0
    else:
        priorities = rng.random(n)
    return {
        "task_ids": task_ids,
        "edges": [list(edge) for edge in edges],
        "importance_hex": [float(v).hex() for v in importance],
        "priorities_hex": [float(v).hex() for v in priorities],
    }


def graph_outputs(inputs: dict, seed: int) -> dict:
    """What the graph built from ``inputs`` answers."""
    graph = TaskDependencyGraph(inputs["task_ids"], [tuple(e) for e in inputs["edges"]])
    importance = np.array([float.fromhex(v) for v in inputs["importance_hex"]])
    priorities = np.array([float.fromhex(v) for v in inputs["priorities_hex"]])
    rng = np.random.default_rng(10_000 + seed)
    shuffled = [int(t) for t in rng.permutation(inputs["task_ids"])]
    truncated = shuffled[: len(shuffled) // 2]
    return {
        "n_tasks": graph.n_tasks,
        "n_dependencies": graph.n_dependencies,
        "generations": graph.generations(),
        "ancestors": {str(t): sorted(graph.ancestors_of(t)) for t in inputs["task_ids"]},
        "effective_importance_hex": [
            float(v).hex() for v in graph.effective_importance(importance)
        ],
        "order_respecting": graph.order_respecting(priorities),
        "violations_shuffled": [list(v) for v in graph.violations(shuffled)],
        "violations_truncated": [list(v) for v in graph.violations(truncated)],
    }


def error_cases() -> dict:
    """Error type and message of each rejected dependency."""
    cases = {
        "cycle": ([3, 7, 5], [(3, 7), (7, 5)], (5, 3)),
        "self_loop": ([3, 7, 5], [(3, 7)], (7, 7)),
        "unknown_task": ([3, 7, 5], [(3, 7)], (7, 9)),
    }
    out = {}
    for name, (task_ids, edges, (before, after)) in cases.items():
        graph = TaskDependencyGraph(task_ids, edges)
        try:
            graph.add_dependency(before, after)
        except Exception as exc:  # noqa: BLE001 - the type is what is pinned
            out[name] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "n_dependencies_after": graph.n_dependencies,
            }
        else:
            raise AssertionError(f"{name}: add_dependency({before}, {after}) did not raise")
    return out


def golden() -> dict:
    graphs = []
    for seed in range(N_GRAPHS):
        inputs = graph_inputs(seed)
        graphs.append({"seed": seed, "inputs": inputs, "outputs": graph_outputs(inputs, seed)})
    return {"graphs": graphs, "errors": error_cases()}


def main() -> None:
    data = golden()
    # One graph per line keeps the file small and its diffs readable.
    lines = ",\n".join(json.dumps(graph) for graph in data["graphs"])
    text = f'{{"errors": {json.dumps(data["errors"])},\n"graphs": [\n{lines}\n]}}\n'
    GOLDEN_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
