"""Traffic-generator determinism and statistical sanity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve.samplers import (
    GaussianPoissonSampler,
    PoissonSampler,
    generate_trace,
    make_sampler,
    trace_arrival_stats,
)
from repro.serve.schemas import ServeConfig


class TestPoissonSampler:
    def test_deterministic_under_seed(self):
        a = PoissonSampler(100.0, seed=42).arrival_times(200)
        b = PoissonSampler(100.0, seed=42).arrival_times(200)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = PoissonSampler(100.0, seed=1).arrival_times(50)
        b = PoissonSampler(100.0, seed=2).arrival_times(50)
        assert not np.array_equal(a, b)

    def test_mean_gap_tracks_rate(self):
        gaps = np.diff(PoissonSampler(200.0, seed=0).arrival_times(5000))
        assert gaps.mean() == pytest.approx(1.0 / 200.0, rel=0.1)

    def test_arrivals_until_bounded_and_ordered(self):
        arrivals = PoissonSampler(500.0, seed=3).arrivals_until(2.0)
        assert arrivals.size > 0
        assert float(arrivals[-1]) < 2.0
        assert np.all(np.diff(arrivals) > 0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonSampler(0.0)


class TestGaussianPoissonSampler:
    def test_burstier_than_poisson(self):
        """Gap CV grows with burst_sigma; sigma=0 matches plain Poisson CV."""
        plain = np.diff(PoissonSampler(100.0, seed=7).arrival_times(4000))
        bursty = np.diff(
            GaussianPoissonSampler(100.0, burst_sigma=0.8, seed=7).arrival_times(4000)
        )
        cv = lambda g: g.std() / g.mean()  # noqa: E731
        assert cv(bursty) > cv(plain) * 1.1

    def test_mean_gap_matches_length_biased_rate(self):
        """The rate factor is mean-one, but gaps average its *inverse*:
        E[gap] = exp(sigma^2) / rate_hz (length-biased sampling)."""
        sigma = 0.4
        gaps = np.diff(
            GaussianPoissonSampler(100.0, burst_sigma=sigma, seed=0).arrival_times(8000)
        )
        expected = np.exp(sigma**2) / 100.0
        assert gaps.mean() == pytest.approx(expected, rel=0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianPoissonSampler(100.0, burst_sigma=-0.1)


class TestGapChunkInvariance:
    """``gap_chunk`` is exactly the vectorization of ``next_gap``.

    The fleet engine draws arrivals chunk-by-chunk (the ``_F_REFILL``
    path), so the gap stream must be bit-for-bit invariant to how the
    draws are partitioned into chunks — for both families, across chunk
    sizes and chunk boundaries.
    """

    @pytest.mark.parametrize("family", ["poisson", "gauss_poisson"])
    @given(sizes=st.lists(st.integers(min_value=0, max_value=17), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_chunked_equals_gap_by_gap(self, family, sizes):
        chunked_sampler = make_sampler(family, 120.0, burst_sigma=0.6, seed=5)
        chunked = np.concatenate(
            [chunked_sampler.gap_chunk(n) for n in sizes] or [np.empty(0)]
        )
        scalar_sampler = make_sampler(family, 120.0, burst_sigma=0.6, seed=5)
        scalar = np.asarray([scalar_sampler.next_gap() for _ in range(sum(sizes))])
        np.testing.assert_array_equal(chunked, scalar)

    @pytest.mark.parametrize("family", ["poisson", "gauss_poisson"])
    @given(
        left=st.lists(st.integers(min_value=0, max_value=13), min_size=1, max_size=6),
        right=st.lists(st.integers(min_value=0, max_value=13), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_two_partitions_agree_on_the_common_prefix(self, family, left, right):
        a = make_sampler(family, 90.0, burst_sigma=0.3, seed=2)
        b = make_sampler(family, 90.0, burst_sigma=0.3, seed=2)
        gaps_a = np.concatenate([a.gap_chunk(n) for n in left] or [np.empty(0)])
        gaps_b = np.concatenate([b.gap_chunk(n) for n in right] or [np.empty(0)])
        prefix = min(gaps_a.size, gaps_b.size)
        np.testing.assert_array_equal(gaps_a[:prefix], gaps_b[:prefix])

    @pytest.mark.parametrize("family", ["poisson", "gauss_poisson"])
    def test_mixed_scalar_and_chunk_calls_share_one_stream(self, family):
        mixed_sampler = make_sampler(family, 80.0, seed=1)
        mixed = np.asarray(
            [mixed_sampler.next_gap()]
            + list(mixed_sampler.gap_chunk(5))
            + [mixed_sampler.next_gap()]
        )
        scalar_sampler = make_sampler(family, 80.0, seed=1)
        scalar = np.asarray([scalar_sampler.next_gap() for _ in range(7)])
        np.testing.assert_array_equal(mixed, scalar)

    @pytest.mark.parametrize("sampler_name", ["poisson", "gauss_poisson"])
    def test_fleet_refill_path_invariant_to_chunk_size(self, sampler_name):
        """The ``_F_REFILL`` arrival stream never depends on the chunk size.

        Arrival *times* carry the running stream position through the
        chunked cumsum (regression: restarting from the refill event's
        clamped calendar time drifted the stream by up to ``bucket_s``
        per refill, losing most arrivals at small chunks), so the arrival
        and completion counts are exactly chunk-independent. Fired event
        times still participate in the engine's cohort-batching skew —
        bounded by ``bucket_s`` — so latency aggregates agree only to
        that bound, not bitwise.
        """
        from repro.edgesim.fleet import FleetConfig, FleetSimulator

        base = FleetConfig(
            n_nodes=400,
            n_regions=8,
            duration_s=20.0,
            arrival_rate_hz=50.0,
            sampler=sampler_name,
            seed=3,
        )
        results = [
            FleetSimulator(dataclasses.replace(base, chunk=chunk)).run()
            for chunk in (7, 64, 8192)
        ]
        reference = results[0]
        for result in results[1:]:
            assert result.arrivals == reference.arrivals
            assert result.completed == reference.completed
            assert result.latency_mean_s == pytest.approx(
                reference.latency_mean_s, abs=2 * base.bucket_s
            )
            assert result.latency_p95_s == pytest.approx(
                reference.latency_p95_s, abs=2 * base.bucket_s
            )


class TestMakeSampler:
    def test_maps_config_names(self):
        assert isinstance(make_sampler("poisson", 10.0), PoissonSampler)
        assert isinstance(
            make_sampler("gauss_poisson", 10.0, burst_sigma=0.2), GaussianPoissonSampler
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sampler("uniform", 10.0)


class TestGenerateTrace:
    CONFIG = ServeConfig(arrival_rate_hz=800.0, duration_s=0.5, redraw_every=50, seed=9)

    def test_pure_function_of_config(self):
        geometry_a, requests_a = generate_trace(self.CONFIG)
        geometry_b, requests_b = generate_trace(self.CONFIG)
        np.testing.assert_array_equal(geometry_a.importance, geometry_b.importance)
        assert len(requests_a) == len(requests_b)
        for a, b in zip(requests_a, requests_b):
            assert a.request_id == b.request_id
            assert a.arrival_s == b.arrival_s
            np.testing.assert_array_equal(a.importance, b.importance)

    def test_request_shape_matches_geometry(self):
        geometry, requests = generate_trace(self.CONFIG)
        assert len(requests) > 100
        assert all(r.importance.size == geometry.n_tasks for r in requests)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_redraws_change_importance_regime(self):
        _, requests = generate_trace(self.CONFIG)
        before = requests[self.CONFIG.redraw_every - 1].importance
        after = requests[self.CONFIG.redraw_every].importance
        assert np.abs(after - before).max() > 1e-3  # wholesale redraw, not drift

    def test_drift_stays_sub_quantization(self):
        _, requests = generate_trace(self.CONFIG)
        within = requests[:2]  # same regime, drift-jitter apart
        assert np.abs(within[1].importance - within[0].importance).max() < 1e-6

    def test_stats_reflect_rate(self):
        _, requests = generate_trace(self.CONFIG)
        stats = trace_arrival_stats(requests)
        assert stats["n"] == len(requests)
        assert stats["gap_mean_s"] == pytest.approx(1.0 / 800.0, rel=0.25)

    def test_trailing_seed_change_keeps_geometry(self):
        """Different seed → different trace, derived-seed isolation intact."""
        import dataclasses

        geometry_a, requests_a = generate_trace(self.CONFIG)
        _, requests_b = generate_trace(dataclasses.replace(self.CONFIG, seed=10))
        arrivals_a = [r.arrival_s for r in requests_a]
        arrivals_b = [r.arrival_s for r in requests_b]
        assert arrivals_a[: min(len(arrivals_a), len(arrivals_b))] != arrivals_b[
            : min(len(arrivals_a), len(arrivals_b))
        ]
        geometry_fixed, _ = generate_trace(
            dataclasses.replace(self.CONFIG, seed=10), geometry=geometry_a
        )
        np.testing.assert_array_equal(geometry_fixed.importance, geometry_a.importance)
