"""The decision function H(J; θ) over chiller sequencing.

Implements the paper's example instantiation

    H(J; θ) = 1 − |D − D(θ)| / D

where ``D`` is the ideal decision performance (the minimum true power the
plant could draw) and ``D(θ)`` is the power realized when sequencing uses
the task models' COP predictions. Tasks that are absent from the model set
(never trained, dropped for leave-one-out importance, or not allocated)
fall back to the machine's nameplate COP estimate — the prediction an
operator would use without any data-driven model — so excluding a task
degrades exactly the decisions that task would have informed.

Importance scores many task subsets against one decision epoch. A
:class:`CopTable` predicts one building-day's COPs once, from the full θ,
and records which task produced each; any subset J' ⊂ J is then scored
from that table with the keys of the tasks outside J' set to nameplate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.building.chiller import Chiller
from repro.building.dataset import BuildingOperationDataset
from repro.building.sequencing import (
    ScenarioCandidates,
    decision_performance,
    scenario_candidates,
    scenario_score,
)
from repro.errors import DataError
from repro.transfer.task import TaskModelSet

#: Defaults used to complete a decision-time feature vector: the sequencer
#: knows (plr, temperature) but not yet the hydronic telemetry of the hour.
DEFAULT_HUMIDITY = 0.68
DEFAULT_CONDITION = 1.0
DEFAULT_DELTA_T = 5.5
WATER_SPECIFIC_HEAT = 4.186


def nameplate_cop(chiller: Chiller) -> float:
    """The no-model fallback COP estimate.

    Without a data-driven task, the operator only knows the catalog rating —
    not the machine's age degradation, unit bias, or part-load behaviour —
    so sequencing decisions made from this estimate are systematically off
    for old or off-design-operated machines. That error is what makes a
    dropped task *cost* something, i.e. what gives tasks their importance.
    """
    return chiller.model_type.rated_cop


class MTLDecisionModel:
    """Scores trained task models by the decisions they induce.

    Parameters
    ----------
    dataset:
        The generated building dataset (provides plants and scenarios).
    model_set:
        The fitted θ to evaluate.
    humidity, condition:
        Decision-time context defaults; override with the day's sensed
        values when available.
    """

    def __init__(
        self,
        dataset: BuildingOperationDataset,
        model_set: TaskModelSet,
        *,
        humidity: float = DEFAULT_HUMIDITY,
        condition: float = DEFAULT_CONDITION,
    ) -> None:
        self.dataset = dataset
        self.model_set = model_set
        self.humidity = float(humidity)
        self.condition = float(condition)
        self._cache: dict[tuple[int, int, float, float], float] = {}

    # ------------------------------------------------------------------
    def _feature_row(self, chiller: Chiller, plr: float, outdoor_temp: float) -> np.ndarray:
        """Decision-time feature vector matching TASK_FEATURE_COLUMNS."""
        load_share = plr * chiller.capacity_kw
        flow = load_share / (WATER_SPECIFIC_HEAT * DEFAULT_DELTA_T)
        return np.array(
            [[plr, outdoor_temp, self.humidity, self.condition, flow, DEFAULT_DELTA_T]]
        )

    def _prediction(
        self, chiller: Chiller, plr: float, outdoor_temp: float
    ) -> tuple[float, int | None]:
        """(COP, id of the task that predicted it — ``None`` for nameplate)."""
        task = self.model_set.lookup(chiller.building_id, chiller.chiller_id, plr)
        if task is None or not task.is_fitted:
            return nameplate_cop(chiller), None
        value = float(task.predict(self._feature_row(chiller, plr, outdoor_temp))[0])
        return min(max(value, 0.5), 12.0), task.task_id

    def predicted_cop(self, chiller: Chiller, plr: float, outdoor_temp: float) -> float:
        """COP prediction used by the sequencer (cached per operating point)."""
        key = _operating_point(chiller, plr, outdoor_temp)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._prediction(chiller, plr, outdoor_temp)[0]
        return cached

    def cop_fn(self):
        """A CopFunction closure for :func:`repro.building.sequencing.sequence_chillers`."""
        return lambda chiller, plr, temp: self.predicted_cop(chiller, plr, temp)

    # ------------------------------------------------------------------
    def building_performance(
        self, building_id: int, scenarios: Sequence[tuple[float, float]]
    ) -> float:
        """H restricted to one building's plant over the given scenarios."""
        if not 0 <= building_id < len(self.dataset.plants):
            raise DataError(f"building_id {building_id} out of range")
        plant = self.dataset.plants[building_id]
        return decision_performance(plant.chillers, scenarios, cop_fn=self.cop_fn())

    def cop_table(
        self, building_id: int, scenarios: Sequence[tuple[float, float]]
    ) -> CopTable:
        """Predict one building's scenarios once, for scoring many task subsets.

        Predictions are made in the order :meth:`building_performance`
        makes them, with a cache of the table's own, so the table holds
        exactly what a fresh model would predict.
        """
        if not 0 <= building_id < len(self.dataset.plants):
            raise DataError(f"building_id {building_id} out of range")
        if not scenarios:
            raise DataError(f"no scenarios for building {building_id}")
        chillers = self.dataset.plants[building_id].chillers
        priced = scenario_candidates(chillers, scenarios)
        index: dict[tuple[int, int, float, float], int] = {}
        values: list[float] = []
        nameplates: list[float] = []
        owners: list[int | None] = []
        point_keys: list[tuple[int, ...]] = []
        for scenario in priced:
            temp = scenario.outdoor_temp
            keys = []
            for i, plr in scenario.points:
                chiller = chillers[i]
                key = _operating_point(chiller, plr, temp)
                position = index.get(key)
                if position is None:
                    position = index[key] = len(values)
                    value, owner = self._prediction(chiller, plr, temp)
                    values.append(value)
                    owners.append(owner)
                    nameplates.append(nameplate_cop(chiller))
                keys.append(position)
            point_keys.append(tuple(keys))
        return CopTable(priced, point_keys, values, nameplates, owners)

    def cop_tables(self, day: int) -> list[CopTable]:
        """One :class:`CopTable` per building for decision epoch ``day``."""
        return [
            self.cop_table(building_id, self.dataset.scenarios_for_day(building_id, day))
            for building_id in range(len(self.dataset.plants))
        ]

    def overall_performance(self, day: int) -> float:
        """H(J; θ) across all buildings for decision epoch ``day``."""
        scores = []
        for building_id in range(len(self.dataset.plants)):
            scenarios = self.dataset.scenarios_for_day(building_id, day)
            if scenarios:
                scores.append(self.building_performance(building_id, scenarios))
        if not scores:
            raise DataError(f"no positive-load scenarios on day {day}")
        return float(np.mean(scores))


def _operating_point(
    chiller: Chiller, plr: float, outdoor_temp: float
) -> tuple[int, int, float, float]:
    """Cache key of a COP prediction: the rounded operating point."""
    return (chiller.building_id, chiller.chiller_id, round(plr, 4), round(outdoor_temp, 2))


class CopTable:
    """One building's scenarios with the COPs θ predicts at every operating point.

    Built by :meth:`MTLDecisionModel.cop_table`. Each rounded operating
    point (key) holds the full θ's prediction and the task that made it.
    Dropping a set of tasks turns their keys into nameplate COPs; only the
    scenarios that visit one of those keys are re-scored, and the rest keep
    their full-set score. The scores are the ones a fresh
    :class:`MTLDecisionModel` over the reduced task set would give.
    """

    def __init__(
        self,
        scenarios: list[ScenarioCandidates],
        point_keys: list[tuple[int, ...]],
        values: list[float],
        nameplates: list[float],
        owners: list[int | None],
    ) -> None:
        self._scenarios = scenarios
        self._point_keys = point_keys
        self._values = values
        self._nameplates = nameplates
        self._task_keys: dict[int, list[int]] = {}
        for key, owner in enumerate(owners):
            if owner is not None:
                self._task_keys.setdefault(owner, []).append(key)
        self._task_scenarios: dict[int, set[int]] = {}
        for position, keys in enumerate(point_keys):
            for key in keys:
                owner = owners[key]
                if owner is not None:
                    self._task_scenarios.setdefault(owner, set()).add(position)
        self._full_scores = [
            scenario_score(scenario, [values[key] for key in keys])
            for scenario, keys in zip(scenarios, point_keys)
        ]

    def scores(self, dropped: Iterable[int] = ()) -> list[float]:
        """Per-scenario H with the tasks in ``dropped`` at nameplate COP."""
        values = list(self._values)
        touched: set[int] = set()
        for task_id in dropped:
            for key in self._task_keys.get(task_id, ()):
                values[key] = self._nameplates[key]
            touched |= self._task_scenarios.get(task_id, set())
        scores = list(self._full_scores)
        for position in touched:
            keys = self._point_keys[position]
            scores[position] = scenario_score(
                self._scenarios[position], [values[key] for key in keys]
            )
        return scores

    def performance(self, dropped: Iterable[int] = ()) -> float:
        """H of this building with the tasks in ``dropped`` excluded."""
        return float(np.mean(self.scores(dropped)))
