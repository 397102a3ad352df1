"""Fleet-mode engine: open-loop behavior, churn, and memory bounds."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.edgesim.fleet import FleetConfig, FleetSimulator, _fifo_ends, _SlotPool
from repro.edgesim.network import RegionalNetwork
from repro.edgesim.shard import result_digest
from repro.errors import ConfigurationError


def _run(**overrides):
    defaults = dict(n_nodes=400, n_regions=4, duration_s=20.0, seed=1)
    defaults.update(overrides)
    return FleetSimulator(FleetConfig(**defaults)).run()


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_nodes=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(n_nodes=10, n_regions=11)
        with pytest.raises(ConfigurationError):
            FleetConfig(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetConfig(arrival_rate_hz=-1.0)

    def test_network_region_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_regions=4, network=RegionalNetwork(n_regions=8))

    def test_shared_medium_access_required(self):
        from repro.edgesim.network import SwitchedNetwork

        with pytest.raises(ConfigurationError):
            RegionalNetwork(access=SwitchedNetwork())


class TestFleetRun:
    def test_deterministic_across_repeats(self):
        first = _run()
        second = _run()
        assert first.arrivals == second.arrivals
        assert first.completed == second.completed
        assert first.events == second.events
        assert first.latency_mean_s == second.latency_mean_s
        assert first.latency_p99_s == second.latency_p99_s
        assert [w.start_s for w in first.windows] == [w.start_s for w in second.windows]

    def test_one_simulator_runs_twice_to_one_digest(self):
        """``run`` is re-entrant: node liveness, incarnations, busy-until
        times and the per-region rotation all restart with each run."""
        sim = FleetSimulator(
            FleetConfig(n_nodes=2_000, n_regions=20, duration_s=5.0, churn_rate_hz=10.0, seed=1)
        )
        first = sim.run()
        second = sim.run()
        assert first.failures > 0
        assert result_digest(second) == result_digest(first)

    def test_seed_changes_outcome(self):
        assert _run(seed=1).latency_mean_s != _run(seed=2).latency_mean_s

    def test_everything_completes_without_churn(self):
        result = _run()
        assert result.arrivals > 0
        assert result.completed == result.arrivals
        assert result.dropped == 0
        assert result.failures == result.recoveries == 0
        assert result.redispatched == 0
        assert 0 < result.latency_p50_s <= result.latency_p99_s

    def test_churn_fails_recovers_and_redispatches(self):
        result = _run(churn_rate_hz=2.0, duration_s=30.0, seed=5)
        assert result.failures > 0
        assert result.recoveries == result.failures
        # Conservation: every arrival either completed or was dropped to a
        # fully-dead region.
        assert result.completed + result.dropped == result.arrivals

    def test_single_region_single_node(self):
        result = _run(n_nodes=1, n_regions=1, arrival_rate_hz=2.0, duration_s=10.0)
        assert result.completed == result.arrivals

    def test_windows_bounded_by_max_windows(self):
        result = _run(duration_s=60.0, window_s=1.0, max_windows=8)
        assert len(result.windows) <= 8
        assert result.timeseries.dropped > 0

    def test_windowed_counters_cover_run_totals(self):
        result = _run(duration_s=20.0, window_s=5.0)
        arrivals = sum(
            row["delta"]
            for w in result.windows
            for row in w.rows
            if row["name"] == "repro_fleet_arrivals_total"
        )
        assert arrivals == result.arrivals

    def test_peak_in_flight_below_arrivals(self):
        result = _run(duration_s=30.0)
        assert 0 < result.peak_in_flight < result.arrivals

    def test_node_columns_must_match_config(self):
        config = FleetConfig(n_nodes=8, n_regions=2)
        with pytest.raises(ConfigurationError):
            FleetSimulator(config, s_per_bit=np.ones(7))
        with pytest.raises(ConfigurationError):
            FleetSimulator(config, region=np.zeros(9, dtype=np.int64))


class TestFleetMemory:
    def test_memory_does_not_scale_with_events(self):
        """O(nodes + windows): quadrupling the event count at fixed node
        and window counts must not grow peak traced memory materially."""

        def peak(duration_s: float) -> int:
            # ~50% access-radio utilization: a *stable* queue, so in-flight
            # work (and with it the calendar) stays bounded. An overloaded
            # config would grow a real backlog — O(queued events) memory is
            # then the physics, not an engine leak.
            config = FleetConfig(
                n_nodes=256,
                n_regions=4,
                duration_s=duration_s,
                arrival_rate_hz=12.0,
                window_s=duration_s / 4,  # window COUNT fixed across runs
                chunk=512,
                seed=3,
            )
            simulator = FleetSimulator(config)
            tracemalloc.start()
            result = simulator.run()
            _current, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert result.completed > 0
            return peak_bytes

        short = peak(30.0)
        long = peak(120.0)  # 4x the arrivals/events
        assert long < short * 1.5 + 262_144, (short, long)

    def test_slot_pool_grows_by_doubling_and_reuses(self):
        pool = _SlotPool(4)
        first = pool.alloc(3)
        assert pool.in_use == 3
        pool.free(first[:2])
        assert pool.in_use == 1
        second = pool.alloc(2)  # reuses the freed ids
        assert set(second) <= set(first[:2])
        big = pool.alloc(64)  # forces growth
        assert len(big) == 64
        assert pool.peak_in_use == pool.in_use == 67


class TestFifoEnds:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_fifo(self, seed):
        rng = np.random.default_rng(seed)
        ready = np.sort(rng.uniform(0.0, 10.0, size=50))
        durations = rng.uniform(0.01, 2.0, size=50)
        busy0 = float(rng.uniform(0.0, 5.0))
        expected = []
        busy = busy0
        for r, d in zip(ready, durations):
            start = max(r, busy)
            busy = start + d
            expected.append(busy)
        got = _fifo_ends(ready, durations, busy0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
