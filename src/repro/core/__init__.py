"""Scenarios, the DCTA system, experiment sweeps, and capacity planning.

The experiment/system constructors (``DCTASystem``, ``PTExperiment``,
``ScenarioConfig``, ...) are part of the single top-level :mod:`repro`
facade: import them with ``from repro import X``. The concrete
submodules (``repro.core.experiment`` etc.) are the internal
implementation.
"""

from repro.core.scenario import Epoch
from repro.core.experiment import EpochOutcome, SweepResult
from repro.core.statistics import AggregatedSweep, aggregate_sweeps, repeat_sweep
from repro.core.planner import bandwidth_needed, capacity_table, processors_needed

__all__ = [
    "Epoch",
    "SweepResult",
    "EpochOutcome",
    "AggregatedSweep",
    "aggregate_sweeps",
    "repeat_sweep",
    "processors_needed",
    "bandwidth_needed",
    "capacity_table",
]
