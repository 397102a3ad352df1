"""End-to-end DCTA system over the green-building pipeline.

This is the full-fidelity integration the paper deploys: synthetic building
telemetry → MTL task training → leave-one-out task importance per day →
historical environment store → CRL training → local SVM process on real
Table I features → the four allocation policies → the edge testbed
simulation, with decision quality H(.) measurable for any allocation.

The figure benchmarks use the faster statistically matched
:class:`repro.core.scenario.SyntheticScenario`; this facade exists to show
(and test) that the whole chain composes on real pipeline data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.allocation.base import Allocator, EpochContext, tatim_from_workload
from repro.allocation.crl_policy import CRLAllocator
from repro.allocation.dcta import DCTAAllocator
from repro.allocation.dml import DMLAllocator
from repro.allocation.local import LocalProcess
from repro.allocation.random_mapping import RandomMapping
from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.building.features import TaskEpochFeatures
from repro.core.experiment import EpochOutcome
from repro.edgesim.simulator import EdgeSimulator, SimResult
from repro.edgesim.testbed import scaled_testbed
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError
from repro.importance.importance import ImportanceEvaluator
from repro.ml.metrics import mean_absolute_error
from repro.rl.crl import CRLModel, EnvironmentStore
from repro.rl.dqn import DQNConfig
from repro.tatim.greedy import density_greedy
from repro.telemetry import get_registry, span
from repro.transfer.decision import MTLDecisionModel
from repro.transfer.registry import make_strategy
from repro.transfer.task import TaskModelSet


@dataclass(frozen=True)
class DCTASystemConfig:
    """Configuration of the full pipeline build."""

    building: BuildingOperationConfig = field(default_factory=lambda: BuildingOperationConfig(n_days=40))
    mtl_strategy: str = "clustered"
    base_model: str = "ridge"
    history_fraction: float = 0.7
    n_processors: int = 10
    bandwidth_mbps: float = 50.0
    crl_clusters: int = 3
    crl_episodes: int = 40
    dqn_hidden: tuple[int, ...] = (64, 32)
    weights: tuple[float, float] = (0.5, 0.5)
    quality_threshold: float = 0.9
    mean_input_mb: float = 500.0
    #: Ignored: the build never fans out (CRL trains its per-cluster
    #: agents in-process). Kept so existing ``jobs=N`` callers still
    #: construct; it will be removed.
    jobs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.history_fraction < 1.0:
            raise ConfigurationError(
                f"history_fraction must be in (0, 1), got {self.history_fraction}"
            )


class DCTASystem:
    """Builds and runs the complete DCTA stack on pipeline data."""

    def __init__(self, config: DCTASystemConfig | None = None) -> None:
        self.config = config if config is not None else DCTASystemConfig()
        self.dataset: BuildingOperationDataset | None = None
        self.model_set: TaskModelSet | None = None
        self.evaluator: ImportanceEvaluator | None = None
        self.history_days: np.ndarray | None = None
        self.eval_days: np.ndarray | None = None
        self.importance_history: np.ndarray | None = None
        self.workload: list[SimTask] | None = None
        self.allocators: dict[str, Allocator] | None = None
        self.nodes = None
        self.network = None
        self._features: TaskEpochFeatures | None = None
        self._past_success: np.ndarray | None = None
        self._prediction_accuracy: np.ndarray | None = None

    # ------------------------------------------------------------------
    def build(self) -> "DCTASystem":
        """Run the full training chain. Idempotent."""
        started = time.perf_counter()
        with span("core.build", seed=self.config.seed):
            result = self._build()
        get_registry().histogram(
            "repro_core_build_seconds",
            help="Full DCTASystem training-chain latency",
        ).observe(time.perf_counter() - started)
        return result

    def _build(self) -> "DCTASystem":
        config = self.config
        dataset = BuildingOperationDataset(config.building).generate()
        strategy = make_strategy(config.mtl_strategy, config.base_model, seed=config.seed)
        with span("core.build.mtl_fit", strategy=config.mtl_strategy):
            model_set = strategy.fit(dataset.tasks)
        evaluator = ImportanceEvaluator(dataset, model_set)

        days = dataset.days
        split = max(1, int(round(config.history_fraction * days.size)))
        if split >= days.size:
            raise DataError("not enough days for a history/eval split; increase n_days")
        history_days = days[:split]
        eval_days = days[split:]
        with span("core.build.importance_history", days=history_days.size):
            importance_history = evaluator.importance_matrix(history_days)

        # Edge workload: one SimTask per learning task; input size scales
        # with the task's training-set size (more samples = more data to
        # ship and grind), memory likewise.
        sample_counts = np.array([task.n_samples for task in dataset.tasks], dtype=float)
        size_scale = config.mean_input_mb / sample_counts.mean()
        workload = [
            SimTask(
                task_id=task.task_id,
                input_mb=float(max(sample_counts[i] * size_scale, 1.0)),
                memory_mb=float(max(sample_counts[i] * 0.5, 10.0)),
                true_importance=0.0,
            )
            for i, task in enumerate(dataset.tasks)
        ]

        nodes, network = scaled_testbed(
            config.n_processors, bandwidth_mbps=config.bandwidth_mbps
        )
        geometry = tatim_from_workload(workload, nodes)

        store = EnvironmentStore()
        for row, day in enumerate(history_days):
            store.add(self._sensing_for_day(dataset, int(day)), importance_history[row])
        crl_model = CRLModel(
            geometry,
            n_clusters=config.crl_clusters,
            episodes=config.crl_episodes,
            dqn_config=DQNConfig(hidden_sizes=config.dqn_hidden),
            seed=config.seed,
        )
        crl_model.fit(store)

        features = TaskEpochFeatures(dataset)
        past_success = np.zeros(len(dataset.tasks))
        prediction_accuracy = self._model_accuracy(model_set)
        train_features, train_labels = [], []
        with span("core.build.selection_labels", days=history_days.size):
            for row, day in enumerate(history_days):
                matrix = features.features_for_day(int(day), past_success, prediction_accuracy)
                problem = geometry.scaled(importance=importance_history[row])
                selection = np.zeros(len(workload), dtype=int)
                selection[density_greedy(problem).assigned_tasks()] = 1
                train_features.append(matrix)
                train_labels.append(selection)
                past_success = past_success + selection
        local = LocalProcess()
        local.fit(train_features, train_labels)

        self.dataset = dataset
        self.model_set = model_set
        self.evaluator = evaluator
        self.history_days = history_days
        self.eval_days = eval_days
        self.importance_history = importance_history
        self.workload = workload
        self.nodes = nodes
        self.network = network
        self._features = features
        self._past_success = past_success
        self._prediction_accuracy = prediction_accuracy
        self.allocators = {
            "RM": RandomMapping(seed=config.seed),
            "DML": DMLAllocator(),
            "CRL": CRLAllocator(crl_model),
            "DCTA": DCTAAllocator(
                crl_model, local, w1=config.weights[0], w2=config.weights[1]
            ),
        }
        return self

    # ------------------------------------------------------------------
    @staticmethod
    def _sensing_for_day(dataset: BuildingOperationDataset, day: int) -> np.ndarray:
        """Concatenate per-building sensing summaries into the Z vector."""
        return np.concatenate(
            [
                dataset.scenario_summary_for_day(building, day)
                for building in range(len(dataset.plants))
            ]
        )

    def _model_accuracy(self, model_set: TaskModelSet) -> np.ndarray:
        """Per-task "Prediction Accuracy" feature: 1 − relative MAE on its data."""
        accuracies = []
        for task_id in model_set.task_ids:
            task = model_set.get(task_id)
            predictions = task.predict(task.data.X)
            mae = mean_absolute_error(task.data.y, predictions)
            mean_target = float(np.mean(np.abs(task.data.y))) or 1.0
            accuracies.append(max(0.0, 1.0 - mae / mean_target))
        return np.asarray(accuracies)

    def _require_built(self) -> None:
        if self.allocators is None:
            raise DataError("system not built; call build() first")

    def context_for_day(self, day: int) -> EpochContext:
        """Assemble the epoch context (sensing + Table I features) for a day."""
        self._require_built()
        sensing = self._sensing_for_day(self.dataset, day)
        matrix = self._features.features_for_day(
            day, self._past_success, self._prediction_accuracy
        )
        return EpochContext(sensing=sensing, features=matrix, day=day)

    def workload_for_day(self, day: int) -> list[SimTask]:
        """The edge workload with that day's true importance attached."""
        self._require_built()
        importance = self.evaluator.importance_for_day(day)
        from dataclasses import replace

        return [
            replace(task, true_importance=float(importance[i]))
            for i, task in enumerate(self.workload)
        ]

    # ------------------------------------------------------------------
    def run_epoch(self, day: int) -> dict[str, SimResult]:
        """Simulate one evaluation day under every policy."""
        self._require_built()
        registry = get_registry()
        with span("core.epoch", day=day):
            workload = self.workload_for_day(day)
            context = self.context_for_day(day)
            simulator = EdgeSimulator(
                self.nodes, self.network, quality_threshold=self.config.quality_threshold
            )
            results: dict[str, SimResult] = {}
            for name, allocator in self.allocators.items():
                with span("core.epoch.policy", policy=name):
                    plan = allocator.plan(workload, self.nodes, context)
                    results[name] = simulator.run(workload, plan)
                if results[name].gate_crossed:
                    registry.histogram(
                        "repro_core_epoch_pt_seconds",
                        help="Per-policy Processing Time of pipeline epochs",
                        policy=name,
                    ).observe(results[name].processing_time)
        registry.counter(
            "repro_core_epochs_total", help="Pipeline evaluation epochs simulated"
        ).inc()
        return results

    def decision_quality(self, day: int, selected_task_ids) -> float:
        """H of the decision made with only the selected tasks' models.

        Quantifies Fig. 3's effect on real pipeline data: allocations that
        keep the important tasks preserve H; allocations that drop them
        degrade it.
        """
        self._require_built()
        selected = set(int(t) for t in selected_task_ids)
        if not selected:
            raise DataError("selected task set must not be empty")
        reduced = self.model_set.restricted_to(selected)
        return MTLDecisionModel(self.dataset, reduced).overall_performance(day)
