"""The task dependency graph is pinned against a recorded golden and two properties.

See ``golden/make_goldens.py`` for what the golden pins. The properties
check ``order_respecting`` and ``ancestors_of`` against brute force on
random DAGs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.dependencies import TaskDependencyGraph

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_make_goldens():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_allocation_make_goldens", GOLDEN_DIR / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDENS = _load_make_goldens()
GOLDEN = json.loads((GOLDEN_DIR / "dependencies_golden.json").read_text(encoding="utf-8"))


def test_golden_covers_the_recorded_graphs():
    assert [g["seed"] for g in GOLDEN["graphs"]] == list(range(MAKE_GOLDENS.N_GRAPHS))
    sizes = [len(g["inputs"]["task_ids"]) for g in GOLDEN["graphs"]]
    assert min(sizes) == 1 and max(sizes) == MAKE_GOLDENS.MAX_TASKS


@pytest.mark.parametrize("entry", GOLDEN["graphs"], ids=lambda g: f"seed{g['seed']}")
def test_graph_matches_golden(entry):
    assert MAKE_GOLDENS.graph_inputs(entry["seed"]) == entry["inputs"]
    assert MAKE_GOLDENS.graph_outputs(entry["inputs"], entry["seed"]) == entry["outputs"]


def test_errors_match_golden():
    assert MAKE_GOLDENS.error_cases() == GOLDEN["errors"]


@st.composite
def dags(draw):
    """``(task_ids, edges)`` of a random DAG over non-contiguous ids."""
    task_ids = draw(st.lists(st.integers(0, 200), min_size=1, max_size=12, unique=True))
    order = draw(st.permutations(task_ids))
    pairs = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([pair for pair, kept in zip(pairs, keep) if kept]))
    return task_ids, edges


def _closure(task_ids, edges) -> dict[int, set[int]]:
    """Transitive prerequisites by fixed-point iteration over the edge list."""
    ancestors = {t: set() for t in task_ids}
    changed = True
    while changed:
        changed = False
        for before, after in edges:
            grown = ancestors[after] | {before} | ancestors[before]
            if grown != ancestors[after]:
                ancestors[after] = grown
                changed = True
    return ancestors


class TestProperties:
    @given(dags(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_respecting_satisfies_every_edge(self, dag, data):
        task_ids, edges = dag
        graph = TaskDependencyGraph(task_ids, edges)
        priorities = np.array(
            data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                               min_size=len(task_ids), max_size=len(task_ids)))
        )
        order = graph.order_respecting(priorities)
        assert sorted(order) == sorted(task_ids)
        position = {task: i for i, task in enumerate(order)}
        assert all(position[before] < position[after] for before, after in edges)
        assert graph.violations(order) == []

    @given(dags())
    @settings(max_examples=60, deadline=None)
    def test_ancestors_equal_transitive_closure(self, dag):
        task_ids, edges = dag
        graph = TaskDependencyGraph(task_ids, edges)
        closure = _closure(task_ids, edges)
        for task in task_ids:
            assert graph.ancestors_of(task) == closure[task]
