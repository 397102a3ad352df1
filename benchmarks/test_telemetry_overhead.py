"""Telemetry overhead budgets: disabled <2%, windowed aggregation <5%.

The instrumented hot paths run with the default :class:`NullRegistry` and
no active trace, so each telemetry touchpoint costs a global read plus a
no-op method call. These checks quantify that cost directly: time the
real workload (TATIM solves), time the disabled-mode telemetry
primitives at a generous per-solve call volume, and assert the
primitives' share is below the 2% budget from the observability issue.

The time-series aggregator rides the enabled path: serving loops call
``maybe_tick()`` once per batch, which is a clock read except on window
boundaries. The second budget pins that addition below 5% of plain
enabled-mode telemetry.

Runs standalone (no pytest-benchmark needed): ``PYTHONPATH=src python -m
pytest benchmarks/test_telemetry_overhead.py -q``.
"""

from __future__ import annotations

import statistics
import time

from repro.tatim.generators import random_instance
from repro.tatim.greedy import density_greedy
from repro.telemetry import (
    MetricsRegistry,
    TimeSeriesAggregator,
    current_run_trace,
    get_registry,
    reset_registry,
    span,
    telemetry_enabled,
    use_registry,
)

#: Telemetry touchpoints budgeted per solve: one span, one counter inc,
#: one histogram observe, one gauge set — double the real decorator's
#: count, so the check is conservative.
CALLS_PER_UNIT = 8
OVERHEAD_BUDGET = 0.02


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time across repeats (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_disabled_primitives_are_under_budget():
    reset_registry()
    assert not telemetry_enabled()
    assert current_run_trace() is None

    problems = [random_instance(40, 6, seed=seed) for seed in range(20)]

    def workload():
        for problem in problems:
            density_greedy(problem)

    def disabled_telemetry():
        # Each loop iteration touches 4 primitives, so CALLS_PER_UNIT // 4
        # iterations per solve hits the budgeted touchpoint volume.
        registry = get_registry()
        for _ in range(len(problems) * (CALLS_PER_UNIT // 4)):
            registry.counter("repro_bench_total", solver="greedy").inc()
            registry.histogram("repro_bench_seconds", solver="greedy").observe(0.001)
            registry.gauge("repro_bench_value").set(1.0)
            with span("bench.solve", solver="greedy"):
                pass

    workload_s = _best_of(workload)
    telemetry_s = _best_of(disabled_telemetry)
    ratio = telemetry_s / workload_s
    assert ratio < OVERHEAD_BUDGET, (
        f"disabled-mode telemetry costs {ratio:.2%} of the workload "
        f"({telemetry_s * 1e3:.2f}ms vs {workload_s * 1e3:.2f}ms); budget is "
        f"{OVERHEAD_BUDGET:.0%}"
    )


#: Serving loops tick once per batch, not per event; mirror that here.
EVENTS = 20_000
TICK_EVERY = 32
AGGREGATOR_BUDGET = 0.05
#: Interleaved (plain, windowed) timing pairs behind the median ratio.
PAIRS = 15


def _enabled_loop(tick) -> float:
    """Plain enabled-mode event loop; ``tick(i)`` runs every TICK_EVERY."""
    registry = MetricsRegistry()
    with use_registry(registry):
        started = time.perf_counter()
        for i in range(EVENTS):
            registry.counter("repro_bench_total", status="ok").inc()
            registry.histogram(
                "repro_bench_seconds", buckets=(0.001, 0.01, 0.1)
            ).observe(0.005)
            if i % TICK_EVERY == 0:
                tick(registry, i)
        return time.perf_counter() - started


def test_aggregator_tick_overhead_under_budget():
    """Per-batch ``maybe_tick`` adds <5% over plain enabled telemetry.

    The injected clock advances 2ms per batch against a 1s window, so
    most ticks take the no-close fast path and a handful of windows
    actually snapshot — the same mix a live serving loop produces.
    """
    state: dict[str, TimeSeriesAggregator] = {}

    def no_tick(registry, i):
        pass

    def aggregator_tick(registry, i):
        if i == 0:
            state["clock"] = [0.0]  # type: ignore[assignment]
            state["agg"] = TimeSeriesAggregator(
                registry,
                window_s=1.0,
                max_windows=64,
                clock=lambda: state["clock"][0],  # type: ignore[index]
            )
        state["clock"][0] += 0.002  # type: ignore[index]
        state["agg"].maybe_tick()

    # Interleaved pairs, alternating which loop runs first, so machine
    # load that drifts over the test lands on both sides of each ratio.
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            windowed_s, plain_s = _enabled_loop(aggregator_tick), _enabled_loop(no_tick)
        else:
            plain_s, windowed_s = _enabled_loop(no_tick), _enabled_loop(aggregator_tick)
        ratios.append(windowed_s / plain_s)
    # The last run's aggregator really closed windows (not all fast path).
    assert len(state["agg"].windows) >= 1
    ratio = statistics.median(ratios) - 1.0
    assert ratio < AGGREGATOR_BUDGET, (
        f"windowed aggregation costs {ratio:+.2%} over plain enabled-mode "
        f"telemetry (median of {PAIRS} paired ratios, range "
        f"{min(ratios) - 1:+.2%}..{max(ratios) - 1:+.2%}); budget is {AGGREGATOR_BUDGET:.0%}"
    )


def test_solver_results_identical_with_and_without_registry():
    """Enabling telemetry observes; it must never change answers."""
    problem = random_instance(40, 6, seed=1)
    reset_registry()
    baseline = density_greedy(problem)
    with use_registry(MetricsRegistry()):
        enabled = density_greedy(problem)
    assert (enabled.matrix == baseline.matrix).all()
