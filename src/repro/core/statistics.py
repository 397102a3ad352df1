"""Multi-seed experiment statistics: mean, spread, and confidence intervals.

A single-seed sweep can mislead — RM especially is high-variance. This
module repeats an experiment across seeds and reduces the per-seed sweep
results into mean ± Student-t confidence intervals per (method, sweep
point), the form a credible evaluation section reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from repro.core.experiment import SweepResult
from repro.errors import ConfigurationError, DataError
from repro.utils.reporting import format_table


#: Working precision (significant digits) of the Student-t tail.
_DIGITS = 40
_HALF = Decimal("0.5")
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def student_t_ppf(p: float, df: int) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Bisection over doubles on the tail ``P(T > t) = I_x(df/2, 1/2) / 2``,
    ``x = df / (df + t^2)``, with the regularized incomplete beta ``I``
    by continued fraction. The tail is evaluated in 40-digit decimal
    arithmetic and the last step rounds to the nearer double, so the
    result is the correctly rounded quantile: a tail evaluated in double
    precision is a few ulps off, enough to move the last bit of ``t``.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must be in (0, 1), got {p}")
    if not isinstance(df, Integral) or df < 1:
        raise ConfigurationError(f"df must be a positive integer, got {df}")
    if p == 0.5:
        return 0.0
    df = int(df)
    with localcontext() as context:
        context.prec = _DIGITS
        target = 1 - Decimal(p) if p > 0.5 else Decimal(p)
        scale = _inverse_beta_half(df)
        lo, hi = 0.0, 1.0
        while _t_tail(Decimal(hi), df, scale) > target:
            lo, hi = hi, 2.0 * hi
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if _t_tail(Decimal(mid), df, scale) > target:
                lo = mid
            else:
                hi = mid
        midpoint = (Decimal(lo) + Decimal(hi)) / 2
        t = hi if _t_tail(midpoint, df, scale) > target else lo
    return t if p > 0.5 else -t


def _inverse_beta_half(df: int) -> Decimal:
    """``1 / B(df/2, 1/2) = Γ(a + 1/2) / (Γ(a) √π)`` by its recurrence in ``a``."""
    ratio, a = (1 / _PI, _HALF) if df % 2 else (_HALF, Decimal(1))
    for _ in range((df - 1) // 2):
        ratio *= (a + _HALF) / a
        a += 1
    return ratio


def _t_tail(t: Decimal, df: int, scale: Decimal) -> Decimal:
    """``P(T > t)`` for ``t >= 0``; ``scale`` is ``1 / B(df/2, 1/2)``."""
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    a = Decimal(df) / 2
    front = scale * x ** (df // 2) * y.sqrt()  # x^a y^(1/2) / B(a, 1/2)
    if df % 2:
        front *= x.sqrt()
    if x < (a + 1) / (a + Decimal("2.5")):
        return front * _beta_continued_fraction(a, _HALF, x) / (2 * a)
    # I_x(a, b) = 1 - I_y(b, a), where the fraction converges fast.
    return _HALF - front * _beta_continued_fraction(_HALF, a, y)


def _beta_continued_fraction(a: Decimal, b: Decimal, x: Decimal) -> Decimal:
    """Continued fraction of ``I_x(a, b)`` for ``x < (a + 1) / (a + b + 2)``.

    Modified Lentz, as Numerical Recipes' ``betacf``; in that range no
    partial denominator vanishes, so it needs no guard against zero.
    """
    tolerance = Decimal(10) ** (4 - _DIGITS)
    c, d = Decimal(1), 1 / (1 - (a + b) * x / (a + 1))
    h = d
    m = 0
    while True:
        m += 1
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for term in (even, odd):
            d = 1 / (1 + term * d)
            c = 1 + term / c
            h *= d * c
        if abs(d * c - 1) < tolerance:
            return h


@dataclass(frozen=True)
class AggregatedSweep:
    """Mean/CI reduction of repeated sweeps.

    ``mean``, ``std``, ``ci_half_width`` map method -> array over sweep
    points; the CI is a two-sided Student-t interval at ``confidence``.
    """

    sweep_name: str
    sweep_values: tuple
    n_seeds: int
    confidence: float
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    ci_half_width: dict[str, np.ndarray]

    def table(self) -> str:
        """Mean ± CI table, one row per sweep point."""
        methods = sorted(self.mean)
        headers = [self.sweep_name] + [f"{m} (s)" for m in methods]
        rows = []
        for i, value in enumerate(self.sweep_values):
            row: list[object] = [value]
            for method in methods:
                row.append(
                    f"{self.mean[method][i]:.4g} ± {self.ci_half_width[method][i]:.3g}"
                )
            rows.append(row)
        return format_table(
            headers,
            rows,
            title=f"mean over {self.n_seeds} seeds, {self.confidence:.0%} CI",
        )

    def mean_speedup(self, method: str, *, reference: str = "DCTA") -> float:
        """Mean of per-point mean-PT ratios method/reference."""
        if method not in self.mean or reference not in self.mean:
            raise DataError(f"unknown method; have {sorted(self.mean)}")
        return float(np.mean(self.mean[method] / self.mean[reference]))

    def separated(self, method_a: str, method_b: str) -> bool:
        """Whether the two methods' CIs are disjoint at every sweep point."""
        low_a = self.mean[method_a] - self.ci_half_width[method_a]
        high_a = self.mean[method_a] + self.ci_half_width[method_a]
        low_b = self.mean[method_b] - self.ci_half_width[method_b]
        high_b = self.mean[method_b] + self.ci_half_width[method_b]
        return bool(np.all((high_a < low_b) | (high_b < low_a)))


def aggregate_sweeps(
    results: Sequence[SweepResult], *, confidence: float = 0.95
) -> AggregatedSweep:
    """Reduce same-shaped sweeps (one per seed) to mean ± CI."""
    if not results:
        raise DataError("aggregate_sweeps needs at least one result")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    first = results[0]
    for result in results[1:]:
        if result.sweep_values != first.sweep_values or set(result.times) != set(first.times):
            raise DataError("sweep results differ in shape; cannot aggregate")
    n = len(results)
    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    half: dict[str, np.ndarray] = {}
    t_value = student_t_ppf(0.5 + confidence / 2.0, n - 1) if n > 1 else 0.0
    for method in first.times:
        stacked = np.vstack([np.asarray(r.times[method]) for r in results])
        mean[method] = stacked.mean(axis=0)
        std[method] = stacked.std(axis=0, ddof=1) if n > 1 else np.zeros(stacked.shape[1])
        half[method] = t_value * std[method] / np.sqrt(n) if n > 1 else np.zeros(stacked.shape[1])
    return AggregatedSweep(
        sweep_name=first.sweep_name,
        sweep_values=first.sweep_values,
        n_seeds=n,
        confidence=confidence,
        mean=mean,
        std=std,
        ci_half_width=half,
    )


def repeat_sweep(
    sweep_factory: Callable[[int], SweepResult],
    seeds: Sequence[int],
    *,
    confidence: float = 0.95,
) -> AggregatedSweep:
    """Run ``sweep_factory(seed)`` per seed and aggregate.

    ``sweep_factory`` should construct the scenario/experiment from the
    seed so runs are independent draws.
    """
    if not seeds:
        raise DataError("repeat_sweep needs at least one seed")
    results = [sweep_factory(int(seed)) for seed in seeds]
    return aggregate_sweeps(results, confidence=confidence)
