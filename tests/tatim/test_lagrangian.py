import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.tatim.exact import branch_and_bound
from repro.tatim.generators import longtail_instance, random_instance
from repro.tatim.greedy import density_greedy
from repro.tatim.lagrangian import lagrangian_bound


class TestLagrangianBound:
    def test_invalid_parameters(self):
        problem = random_instance(5, 1, seed=0)
        with pytest.raises(ConfigurationError):
            lagrangian_bound(problem, iterations=0)
        with pytest.raises(ConfigurationError):
            lagrangian_bound(problem, step_scale=0.0)

    @given(
        n_tasks=st.integers(1, 12),
        n_processors=st.integers(1, 3),
        correlation=st.floats(0.0, 1.0),
        tightness=st.floats(0.1, 1.0),
        iterations=st.integers(1, 30),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_is_valid_upper_bound(
        self, n_tasks, n_processors, correlation, tightness, iterations, seed
    ):
        problem = random_instance(
            n_tasks, n_processors, correlation=correlation, tightness=tightness, seed=seed
        )
        result = lagrangian_bound(problem, iterations=iterations)
        optimal = branch_and_bound(problem).objective(problem)
        assert result.upper_bound >= optimal - 1e-6

    def test_bound_at_most_fractional_bound(self):
        for seed in range(4):
            problem = random_instance(15, 3, seed=seed)
            result = lagrangian_bound(problem, iterations=30)
            assert result.upper_bound <= problem.upper_bound() + 1e-9

    def test_primal_is_feasible(self):
        for seed in range(5):
            problem = longtail_instance(25, 3, seed=seed)
            result = lagrangian_bound(problem, iterations=25)
            assert result.best_allocation.is_feasible(problem)
            assert result.best_value == pytest.approx(
                result.best_allocation.objective(problem)
            )

    def test_gap_definition(self):
        problem = random_instance(10, 2, seed=3)
        result = lagrangian_bound(problem, iterations=25)
        assert 0.0 <= result.gap <= 1.0
        assert result.best_value <= result.upper_bound + 1e-9

    def test_gap_small_on_longtail(self):
        gaps = []
        for seed in range(5):
            problem = longtail_instance(30, 3, seed=seed)
            gaps.append(lagrangian_bound(problem, iterations=40).gap)
        assert float(np.mean(gaps)) < 0.25

    def test_primal_competitive_with_greedy(self):
        values = []
        for seed in range(5):
            problem = longtail_instance(25, 3, seed=seed)
            lagrangian_value = lagrangian_bound(problem, iterations=30).best_value
            greedy_value = density_greedy(problem).objective(problem)
            values.append(lagrangian_value / max(greedy_value, 1e-9))
        assert float(np.mean(values)) > 0.9

    def test_multipliers_nonnegative(self):
        problem = random_instance(12, 3, seed=1)
        result = lagrangian_bound(problem, iterations=20)
        assert np.all(result.multipliers >= 0.0)
