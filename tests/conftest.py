"""Shared fixtures: small-but-real pipeline objects, session-scoped."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.tatim.generators import random_instance
from repro.transfer.registry import make_strategy


@pytest.fixture(scope="session")
def small_dataset() -> BuildingOperationDataset:
    """A compact generated building dataset shared by pipeline tests."""
    config = BuildingOperationConfig(n_days=15, n_buildings=2, seed=11)
    return BuildingOperationDataset(config).generate()


@pytest.fixture(scope="session")
def small_model_set(small_dataset):
    """Clustered-ridge MTL models over the small dataset's tasks."""
    return make_strategy("clustered", "ridge", seed=0).fit(small_dataset.tasks)


@pytest.fixture(scope="session")
def small_scenario() -> SyntheticScenario:
    """A compact synthetic scenario for allocator/experiment tests."""
    return SyntheticScenario(
        ScenarioConfig(n_tasks=12, n_regimes=2, n_history=8, n_eval=2, seed=5)
    )


@pytest.fixture
def tiny_problem():
    """A small random TATIM instance solvable exactly."""
    return random_instance(8, 2, seed=3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def child_pids():
    """A callable: the pids of this process's live child processes."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc to list child processes")

    def children() -> set[int]:
        pids: set[int] = set()
        for path in glob.glob("/proc/self/task/*/children"):
            with open(path, encoding="ascii") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        return pids

    return children
