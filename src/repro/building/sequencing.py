"""Chiller sequencing — the decision function D(·) and its quality H.

The paper instantiates the decision function on chiller-plant operation:
given a cooling load, the operator must decide *which* chillers to run
(the sequencing decision); running chillers split the load at equal part-
load ratio. The decision quality is

    H = 1 − |D − D(θ)| / D

where ``D`` is the ideal power draw (sequencing with the machines' true
COPs — :func:`ideal_power`) and ``D(θ)`` is the power actually drawn when
the subset is chosen from the task models' COP *predictions* but the
physics bills the *true* COPs. Accurate predictions recover the ideal
subset exactly (H = 1); the nameplate fallback of dropped tasks picks the
wrong machines on exactly the days those machines matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from repro.building.chiller import Chiller
from repro.errors import DataError

#: A COP predictor: (chiller, plr, outdoor_temp) -> predicted COP.
CopFunction = Callable[[Chiller, float, float], float]

#: Minimum sustainable part-load ratio; running below it surges the
#: compressor, so a lightly-loaded subset idles at this floor (wasting
#: cooling) rather than below it.
MIN_PLR = 0.2


@dataclass(frozen=True)
class SequencingDecision:
    """Outcome of one sequencing decision.

    Attributes
    ----------
    chiller_ids:
        ``chiller_id`` of every machine switched on.
    plr:
        Common part-load ratio the running machines settle at.
    predicted_power_kw:
        Power the decision maker *expected* (under its COP estimates).
    """

    chiller_ids: tuple[int, ...]
    plr: float
    predicted_power_kw: float


def _true_cop(chiller: Chiller, plr: float, outdoor_temp: float) -> float:
    return float(chiller.cop(plr, outdoor_temp))


def _check_inputs(chillers: Sequence[Chiller], load_kw: float) -> None:
    if not chillers:
        raise DataError("sequencing needs at least one chiller")
    if load_kw <= 0.0:
        raise DataError(f"cooling load must be positive, got {load_kw}")


def evaluate_power(
    chillers: Sequence[Chiller],
    load_kw: float,
    outdoor_temp: float,
    *,
    cop_fn: CopFunction | None = None,
    min_plr: float = MIN_PLR,
) -> float:
    """Power (kW) drawn when exactly ``chillers`` run and split ``load_kw``.

    Load splits at equal part-load ratio, clipped to ``[min_plr, 1]``:
    below the floor the machines idle at ``min_plr`` (over-cooling is paid
    for), above 1 the subset saturates. ``cop_fn`` defaults to the true
    COP physics; pass a model-backed predictor to price a *belief*.
    """
    _check_inputs(chillers, load_kw)
    cop = cop_fn if cop_fn is not None else _true_cop
    total_capacity = sum(chiller.capacity_kw for chiller in chillers)
    plr = min(max(load_kw / total_capacity, min_plr), 1.0)
    return float(
        sum(plr * c.capacity_kw / cop(c, plr, outdoor_temp) for c in chillers)
    )


def _candidate_subsets(
    chillers: Sequence[Chiller], load_kw: float, min_plr: float
) -> list[tuple[tuple[int, ...], float]]:
    """(member indices, plr) for every subset able to serve the load."""
    capacities = [chiller.capacity_kw for chiller in chillers]
    candidates: list[tuple[tuple[int, ...], float]] = []
    indices = range(len(chillers))
    for size in range(1, len(chillers) + 1):
        for members in combinations(indices, size):
            total = sum(capacities[i] for i in members)
            if load_kw <= total:
                candidates.append((members, max(load_kw / total, min_plr)))
    if not candidates:
        # Load exceeds the whole plant: run everything flat out.
        candidates.append((tuple(indices), 1.0))
    return candidates


def sequence_chillers(
    chillers: Sequence[Chiller],
    load_kw: float,
    outdoor_temp: float,
    *,
    cop_fn: CopFunction | None = None,
    min_plr: float = MIN_PLR,
) -> SequencingDecision:
    """D(·): choose the chiller subset minimizing *predicted* power.

    With the default (true-COP) ``cop_fn`` this is the ideal operator;
    with a model-backed ``cop_fn`` it is the operator the task set θ
    induces, whose mistakes :func:`decision_performance` prices.
    """
    _check_inputs(chillers, load_kw)
    cop = cop_fn if cop_fn is not None else _true_cop
    best: tuple[float, tuple[int, ...], float] | None = None
    for members, plr in _candidate_subsets(chillers, load_kw, min_plr):
        power = sum(
            plr * chillers[i].capacity_kw / cop(chillers[i], plr, outdoor_temp)
            for i in members
        )
        if best is None or power < best[0]:
            best = (power, members, plr)
    power, members, plr = best
    return SequencingDecision(
        chiller_ids=tuple(chillers[i].chiller_id for i in members),
        plr=float(plr),
        predicted_power_kw=float(power),
    )


def ideal_power(
    chillers: Sequence[Chiller],
    load_kw: float,
    outdoor_temp: float,
    *,
    min_plr: float = MIN_PLR,
) -> float:
    """D: the minimum true power any subset could serve the load with."""
    [scenario] = scenario_candidates(chillers, [(load_kw, outdoor_temp)], min_plr=min_plr)
    return scenario.best_true


@dataclass(frozen=True)
class ScenarioCandidates:
    """One ``(load_kw, temp)`` scenario's candidate subsets, billed at the true COPs.

    Attributes
    ----------
    outdoor_temp:
        The scenario's outdoor temperature.
    points:
        ``(chiller index, plr)`` of every member of every candidate subset,
        flattened candidate by candidate — the order in which
        :func:`decision_performance` consults a COP predictor.
    shares:
        Per candidate, the load share (kW) of each member, aligned with
        ``points``.
    true_powers:
        Per candidate, the power it draws at the true COPs.
    best_true:
        D, the smallest of ``true_powers``.
    """

    outdoor_temp: float
    points: tuple[tuple[int, float], ...]
    shares: tuple[tuple[float, ...], ...]
    true_powers: tuple[float, ...]
    best_true: float


def scenario_candidates(
    chillers: Sequence[Chiller],
    scenarios: Sequence[tuple[float, float]],
    *,
    min_plr: float = MIN_PLR,
) -> list[ScenarioCandidates]:
    """Price every candidate subset of every scenario at the true COPs.

    The result depends only on the plant and the scenarios, so one call
    serves any number of COP beliefs (see :func:`scenario_score`).
    """
    priced = []
    for load_kw, outdoor_temp in scenarios:
        _check_inputs(chillers, load_kw)
        points: list[tuple[int, float]] = []
        shares: list[tuple[float, ...]] = []
        true_powers: list[float] = []
        best_true: float | None = None
        for members, plr in _candidate_subsets(chillers, load_kw, min_plr):
            true_power = 0.0
            member_shares = []
            for i in members:
                chiller = chillers[i]
                share = plr * chiller.capacity_kw
                true_power += share / _true_cop(chiller, plr, outdoor_temp)
                member_shares.append(share)
                points.append((i, plr))
            if best_true is None or true_power < best_true:
                best_true = true_power
            shares.append(tuple(member_shares))
            true_powers.append(true_power)
        priced.append(
            ScenarioCandidates(
                outdoor_temp=outdoor_temp,
                points=tuple(points),
                shares=tuple(shares),
                true_powers=tuple(true_powers),
                best_true=best_true,
            )
        )
    return priced


def scenario_score(scenario: ScenarioCandidates, cops: Sequence[float]) -> float:
    """H of one scenario, given the predicted COP at each of its ``points``.

    The subset with the lowest *predicted* power is chosen and billed at
    its true power; the score compares that to the ideal power and clips
    to ``[0, 1]``.
    """
    chosen_true: float | None = None
    chosen_predicted: float | None = None
    position = 0
    for shares, true_power in zip(scenario.shares, scenario.true_powers):
        predicted_power = 0.0
        for share in shares:
            predicted_power += share / cops[position]
            position += 1
        if chosen_predicted is None or predicted_power < chosen_predicted:
            chosen_predicted = predicted_power
            chosen_true = true_power
    best_true = scenario.best_true
    return max(0.0, 1.0 - abs(chosen_true - best_true) / best_true)


def decision_performance(
    chillers: Sequence[Chiller],
    scenarios: Sequence[tuple[float, float]],
    *,
    cop_fn: CopFunction | None = None,
    min_plr: float = MIN_PLR,
) -> float:
    """H = 1 − |D − D(θ)| / D, averaged over ``(load_kw, temp)`` scenarios.

    For each scenario the subset is chosen under ``cop_fn`` (the belief θ)
    but billed at the true COPs; the score compares that realized power to
    the ideal-operator power and clips to ``[0, 1]``. A ``cop_fn`` that
    reproduces the true COPs scores exactly 1.
    """
    if not scenarios:
        raise DataError("decision_performance needs at least one scenario")
    cop = cop_fn if cop_fn is not None else _true_cop
    scores = []
    for scenario in scenario_candidates(chillers, scenarios, min_plr=min_plr):
        temp = scenario.outdoor_temp
        cops = [cop(chillers[i], plr, temp) for i, plr in scenario.points]
        scores.append(scenario_score(scenario, cops))
    return float(np.mean(scores))
