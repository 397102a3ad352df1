"""Sharded fleet runner: shards=1 == shards=N bitwise, plus decomposition.

The identity tier is the load-bearing contract: the merged
:class:`FleetResult` (every counter, every percentile, the full streaming
timeseries) must be bit-for-bit independent of how many worker processes
executed the region groups — across seeds, topologies, and churn. Any
``shards`` above 1 runs real worker processes and the shared-memory
column plane, even on single-core CI boxes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edgesim.fleet import FleetConfig
from repro.edgesim.network import RegionalNetwork, SwitchedNetwork
from repro.edgesim.shard import (
    LookaheadBarrier,
    fleet_columns,
    plan_groups,
    result_digest,
    run_fleet_sharded,
)
from repro.errors import ConfigurationError, SimulationError

#: Scalar FleetResult fields compared field-by-field in the identity tier.
_SCALAR_FIELDS = (
    "n_nodes", "n_regions", "duration_s", "arrivals", "completed", "dropped",
    "redispatched", "failures", "recoveries", "events", "peak_in_flight",
    "latency_mean_s", "latency_p50_s", "latency_p95_s", "latency_p99_s",
)


def _assert_identical(a, b) -> None:
    for name in _SCALAR_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.latency_state == b.latency_state
    assert a.timeseries.to_jsonl() == b.timeseries.to_jsonl()
    assert result_digest(a) == result_digest(b)


TOPOLOGIES = {
    "default": dict(n_regions=16),
    "wide-slow-backhaul": dict(
        n_regions=24,
        network=RegionalNetwork(
            n_regions=24,
            backhaul=SwitchedNetwork(bandwidth_mbps=1000.0, latency_s=0.05),
        ),
    ),
}


def _config(seed: int, topology: str, churn: float) -> FleetConfig:
    kwargs = dict(TOPOLOGIES[topology])
    return FleetConfig(
        n_nodes=1200,
        duration_s=10.0,
        arrival_rate_hz=40.0,
        churn_rate_hz=churn,
        seed=seed,
        **kwargs,
    )


class TestShardIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("churn", [0.0, 1.0])
    def test_shards_1_equals_shards_n(self, seed, topology, churn):
        config = _config(seed, topology, churn)
        single = run_fleet_sharded(config, shards=1)
        multi = run_fleet_sharded(config, shards=2)
        assert single.shards == 1
        assert multi.shards == 2
        assert single.groups == multi.groups
        _assert_identical(single.result, multi.result)

    def test_shard_count_beyond_two_is_still_identical(self):
        config = _config(3, "default", 0.5)
        runs = [
            run_fleet_sharded(config, shards=shards) for shards in (1, 3, 4)
        ]
        for other in runs[1:]:
            _assert_identical(runs[0].result, other.result)

    def test_result_depends_on_seed(self):
        a = run_fleet_sharded(_config(0, "default", 0.0), shards=1)
        b = run_fleet_sharded(_config(1, "default", 0.0), shards=1)
        assert result_digest(a.result) != result_digest(b.result)

    def test_group_count_fixes_the_decomposition(self):
        # groups is part of the result's definition: changing it changes
        # the sampling decomposition, so it must never default from the
        # shard/CPU count.
        config = _config(0, "default", 0.0)
        a = run_fleet_sharded(config, shards=1, groups=4)
        b = run_fleet_sharded(config, shards=2, groups=4)
        _assert_identical(a.result, b.result)

    def test_barrier_crossings_reported(self):
        run = run_fleet_sharded(_config(0, "default", 0.0), shards=1)
        # Default RegionalNetwork has a positive backhaul latency, so the
        # lookahead window is finite and boundaries are crossed.
        assert run.barrier_crossings > 0


class TestPlanGroups:
    def test_partition_covers_regions_and_nodes_exactly(self):
        config = FleetConfig(n_nodes=1003, n_regions=13, seed=5)
        specs = plan_groups(config, groups=4)
        assert [s.index for s in specs] == list(range(4))
        assert sum(s.config.n_regions for s in specs) == 13
        assert sum(s.config.n_nodes for s in specs) == 1003
        # Contiguous region ranges, in order.
        first = 0
        for spec in specs:
            assert spec.first_region == first
            first += spec.config.n_regions

    def test_rates_thin_to_the_fleet_totals(self):
        config = FleetConfig(
            n_nodes=1000, n_regions=10, arrival_rate_hz=50.0, churn_rate_hz=3.0
        )
        specs = plan_groups(config, groups=3)
        assert sum(s.config.arrival_rate_hz for s in specs) == pytest.approx(50.0)
        assert sum(s.config.churn_rate_hz for s in specs) == pytest.approx(3.0)

    def test_group_seeds_are_distinct_and_deterministic(self):
        config = FleetConfig(n_nodes=800, n_regions=8, seed=9)
        seeds = [s.config.seed for s in plan_groups(config, groups=8)]
        assert len(set(seeds)) == 8
        assert seeds == [s.config.seed for s in plan_groups(config, groups=8)]

    def test_groups_capped_by_regions(self):
        config = FleetConfig(n_nodes=100, n_regions=3)
        assert len(plan_groups(config, groups=16)) == 3

    def test_invalid_group_count_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_groups(FleetConfig(), groups=0)

    def test_columns_match_the_build_layout(self):
        config = FleetConfig(n_nodes=100, n_regions=7)
        columns = fleet_columns(config)
        np.testing.assert_array_equal(
            columns["region"], np.arange(100, dtype=np.int64) % 7
        )
        assert columns["s_per_bit"].shape == (100,)
        assert columns["s_per_bit"].dtype == np.float64


class TestLookaheadBarrier:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError):
            LookaheadBarrier(0.0)

    def test_crossings_batch_to_the_last_boundary(self):
        barrier = LookaheadBarrier(1.0)
        assert list(barrier.crossings(0.5)) == []  # still inside window 1
        assert list(barrier.crossings(3.5)) == [3.0]  # 1.0 and 2.0 batched
        assert list(barrier.crossings(3.9)) == []  # no new boundary yet
        assert list(barrier.crossings(4.0)) == [4.0]  # exactly on the grid

    def test_every_boundary_is_counted(self):
        barrier = LookaheadBarrier(1.0)
        for boundary in barrier.crossings(5.5):
            barrier.exchange(boundary)
        assert barrier.crossings_count == 5

    def test_nonempty_outbox_violates_the_conservative_window(self):
        barrier = LookaheadBarrier(1.0)
        barrier.outbox.append(("task", 42))
        with pytest.raises(SimulationError):
            barrier.exchange(1.0)

    def test_network_lookahead_is_two_backhaul_latencies(self):
        network = RegionalNetwork(n_regions=4)
        assert network.lookahead_s == 2.0 * network.backhaul.latency_s
