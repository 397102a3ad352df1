"""repro — reproduction of "Data-driven Task Allocation for Multi-task
Transfer Learning on the Edge" (Chen, Zheng, Hu, Wang, Liu — ICDCS 2019).

The package implements the paper's full stack:

- :mod:`repro.ml` — from-scratch ML substrate (SVM/AdaBoost/RF/kNN/k-means/MLP).
- :mod:`repro.building` — synthetic green-building chiller-plant substrate
  standing in for the proprietary dataset of [22].
- :mod:`repro.transfer` — multi-task transfer learning (MTL) strategies and
  the decision function H(.).
- :mod:`repro.importance` — task importance (Definition 1) and its long-tail
  and dynamics analyses (Figs. 2, 4, 5).
- :mod:`repro.tatim` — the TATIM multiply-constrained multiple-knapsack
  problem, exact and greedy solvers (Definition 4, Theorem 1).
- :mod:`repro.rl` — DQN and Clustered Reinforcement Learning (Algorithm 1).
- :mod:`repro.allocation` — RM / DML / CRL / DCTA allocator policies.
- :mod:`repro.edgesim` — discrete-event edge testbed simulator (Fig. 8).
- :mod:`repro.core` — the DCTASystem facade and experiment runner.
- :mod:`repro.parallel` — worker pool, shared-memory plane, fan-out.
- :mod:`repro.serve` — allocation-as-a-service: request/response schemas,
  traffic samplers, the load-balancing dispatcher, and serving KPIs.

This module is the **one public facade**: experiment constructors, the
serving API, and the error hierarchy are all importable directly from
``repro`` (the names in ``__all__`` are the stability surface; see
``tests/test_public_api.py``). A typical batch session is::

    import repro

    dataset = repro.BuildingOperationDataset(
        repro.BuildingOperationConfig(n_days=30, seed=7)
    ).generate()
    model_set = repro.make_strategy("clustered", "ridge", seed=0).fit(dataset.tasks)
    system = repro.DCTASystem(repro.DCTASystemConfig()).build()

and a serving session is::

    config = repro.ServeConfig(arrival_rate_hz=2000, duration_s=5.0)
    geometry, requests = repro.generate_trace(config)
    with repro.Dispatcher(geometry, config) as dispatcher:
        report = dispatcher.run(requests)
    print(report.table())
"""

__version__ = "1.1.0"

from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.core.dcta_system import DCTASystem, DCTASystemConfig
from repro.core.experiment import PTExperiment, build_allocators
from repro.core.online import OnlineDCTA
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.errors import (
    ConfigurationError,
    DataError,
    InfeasibleAllocationError,
    InfeasibleProblemError,
    NotFittedError,
    ReproError,
    SimulationError,
    TrainingError,
)
from repro.serve import (
    AllocationRequest,
    AllocationResponse,
    Dispatcher,
    GaussianPoissonSampler,
    ObservabilityServer,
    PoissonSampler,
    ServeConfig,
    ServeReport,
    generate_trace,
    make_sampler,
)
from repro.telemetry import SLO, SLOEvaluator, TimeSeriesAggregator
from repro.tatim.cache import AllocationCache, use_allocation_cache
from repro.tatim.generators import random_instance
from repro.tatim.problem import TATIMProblem
from repro.tatim.solution import Allocation
from repro.transfer.registry import make_strategy

__all__ = [
    "__version__",
    # building substrate
    "BuildingOperationConfig",
    "BuildingOperationDataset",
    # system / experiment constructors
    "DCTASystem",
    "DCTASystemConfig",
    "OnlineDCTA",
    "PTExperiment",
    "ScenarioConfig",
    "SyntheticScenario",
    "build_allocators",
    "make_strategy",
    # allocation problem + cache
    "Allocation",
    "AllocationCache",
    "TATIMProblem",
    "random_instance",
    "use_allocation_cache",
    # serving plane
    "AllocationRequest",
    "AllocationResponse",
    "Dispatcher",
    "GaussianPoissonSampler",
    "PoissonSampler",
    "ServeConfig",
    "ServeReport",
    "generate_trace",
    "make_sampler",
    # observability plane
    "ObservabilityServer",
    "SLO",
    "SLOEvaluator",
    "TimeSeriesAggregator",
    # error hierarchy
    "ReproError",
    "ConfigurationError",
    "NotFittedError",
    "DataError",
    "InfeasibleProblemError",
    "InfeasibleAllocationError",
    "SimulationError",
    "TrainingError",
]
