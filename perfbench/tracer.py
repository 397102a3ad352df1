"""Span recorder for the traced benchmark run.

The benchmark times the calls into each layer from its own files: it
wraps the public entry points listed by :func:`_entry_points` with timers
that append ``[name, start, end, parent]`` spans to an in-memory list,
then restores the originals. Self time of a span is its duration minus
the durations of its direct children, so nested entry points (DCTA's
``plan`` calling ``CRLModel.allocate``, ``importance_matrix`` calling
``importance_for_day``) are not counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


def _entry_points():
    """``(owner, attribute, span name, result hook)`` for every wrapped call."""
    from repro.allocation.crl_policy import CRLAllocator
    from repro.allocation.dcta import DCTAAllocator
    from repro.allocation.dml import DMLAllocator
    from repro.allocation.local import LocalProcess
    from repro.allocation.random_mapping import RandomMapping
    from repro.building.dataset import BuildingOperationDataset
    from repro.edgesim.events import CalendarQueue
    from repro.edgesim.fleet import FleetSimulator
    from repro.edgesim.simulator import EdgeSimulator
    from repro.importance.importance import ImportanceEvaluator
    from repro.rl.crl import CRLModel
    from repro.tatim.cache import AllocationCache
    from repro.telemetry.instruments import Histogram
    from repro.telemetry.timeseries import TimeSeriesAggregator
    from repro.transfer import strategies

    points = [
        (BuildingOperationDataset, "generate", "building.generate", None),
        (ImportanceEvaluator, "importance_matrix", "importance.matrix", None),
        (ImportanceEvaluator, "importance_for_day", "importance.day", None),
        (CRLModel, "fit", "rl.crl_fit", None),
        (CRLModel, "allocate", "rl.allocate", None),
        (CRLModel, "allocate_batch", "rl.allocate", None),
        (LocalProcess, "fit", "allocation.local_fit", None),
        (RandomMapping, "plan", "allocation.plan.RM", None),
        (DMLAllocator, "plan", "allocation.plan.DML", None),
        (CRLAllocator, "plan", "allocation.plan.CRL", None),
        (DCTAAllocator, "plan", "allocation.plan.DCTA", None),
        (EdgeSimulator, "run", "edgesim.epoch_run", None),
        (FleetSimulator, "run", "edgesim.epoch_run", None),
        (AllocationCache, "get", "tatim.cache_get", "hit"),
        (AllocationCache, "put", "tatim.cache_put", None),
        (CalendarQueue, "pop_cohort", "edgesim.pop_cohort", "cohort"),
        (CalendarQueue, "schedule_batch", "edgesim.schedule_batch", None),
        (Histogram, "observe_batch", "telemetry.observe_batch", None),
        (TimeSeriesAggregator, "maybe_tick", "telemetry.tick", None),
    ]
    for cls in (strategies.MTLStrategy, *strategies.MTLStrategy.__subclasses__()):
        if "fit" in vars(cls):
            points.append((cls, "fit", "transfer.fit", None))
    return points


class Tracer:
    """Records spans around the program's public entry points while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hits = 0
        self.cohorts = 0
        self.cohort_events = 0
        self.shm_peak_bytes = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _timed(self, name: str, original, hook: str | None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if hook == "hit":
                self.hits += result is not None
            elif hook == "cohort" and result is not None:
                self.cohorts += 1
                self.cohort_events += len(result[1])
            return result

        return wrapper

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, replacement)
        if had_own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    @contextmanager
    def active(self):
        """Wrap every entry point for the duration of the block."""
        from repro.parallel.shm import SharedArrayStore
        from repro.serve.dispatcher import SOLVERS

        for owner, attr, name, hook in _entry_points():
            self._patch_attr(owner, attr, self._timed(name, getattr(owner, attr), hook))
        for key, solver in list(SOLVERS.items()):
            SOLVERS[key] = self._timed("tatim.solve", solver, None)
            self._restore.append(lambda key=key, solver=solver: SOLVERS.__setitem__(key, solver))
        share = SharedArrayStore.share

        def tracked_share(store, *args, **kwargs):
            ref = share(store, *args, **kwargs)
            self.shm_peak_bytes = max(self.shm_peak_bytes, store.total_bytes)
            return ref

        self._patch_attr(SharedArrayStore, "share", tracked_share)
        try:
            yield self
        finally:
            while self._restore:
                self._restore.pop()()

    @contextmanager
    def span(self, name: str):
        """A span around a block: a wrapped entry-point call or the benchmark's own code."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (s) and call count.

        A call nested directly inside a span of the same name (the fleet
        engine delegating to the reference engine) counts once.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] = calls.get(name, 0) + 1
        return totals, calls

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line (index order; parent = index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def registry_total(registry, name: str) -> float:
    """Sum of every child of one metric family (0 when never registered)."""
    for family in registry.families():
        if family.name == name:
            return float(sum(child.value for child in family.children.values()))
    return 0.0
