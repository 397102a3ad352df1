"""Dispatcher contract: cache accounting, batched rollouts, and backpressure.

Determinism is pinned by ``test_golden.py``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import Dispatcher, ServeConfig, generate_trace
from repro.serve import dispatcher as dispatcher_module
from repro.serve.schemas import AllocationRequest
from repro.tatim.greedy import density_greedy


def small_config(**overrides) -> ServeConfig:
    defaults = dict(
        arrival_rate_hz=1000.0,
        duration_s=0.4,
        queue_depth=256,
        batch_max=32,
        n_tasks=12,
        n_processors=3,
        seed=0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestServeAndReplay:
    def test_single_request_matches_direct_solve(self):
        config = small_config()
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            response = dispatcher.serve(requests[0])
        direct = density_greedy(
            geometry.scaled(importance=requests[0].importance)
        ).as_assignment()
        assert response.ok
        assert response.assignment == direct
        expected = float(requests[0].importance[list(direct)].sum())
        assert response.objective == pytest.approx(expected)

    def test_replay_serves_everything(self):
        config = small_config()
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.replay(requests)
        assert len(report.responses) == len(requests)
        assert all(r.ok for r in report.responses)
        assert report.rejected == 0

    def test_warm_cache_answers_without_solving(self):
        """Second replay of the same trace is all cache hits."""
        config = small_config()
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            dispatcher.replay(requests)
            report = dispatcher.replay(requests)
        assert all(r.cache_hit for r in report.responses)
        assert report.summary["cache_hits"] == len(requests)

    def test_drift_regime_coalesces_in_cache(self, monkeypatch):
        """Sub-quantization drift → one solver call per regime, not per request."""
        calls = {"n": 0}
        real = dispatcher_module.SOLVERS["density_greedy"]

        def counting(problem):
            calls["n"] += 1
            return real(problem)

        monkeypatch.setitem(dispatcher_module.SOLVERS, "density_greedy", counting)
        config = small_config()
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.replay(requests)
        regimes = len(requests) // max(config.redraw_every, 1) + 1
        # Cache hits + within-batch dedup: one real solve per quantized regime.
        assert calls["n"] <= regimes
        # Only requests in a regime's first batch can be non-hits.
        assert report.summary["cache_hits"] >= len(requests) - regimes * config.batch_max

    def test_cache_disabled_still_correct(self):
        config = small_config(cache=False, duration_s=0.1)
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as cached_off:
            off_ids = cached_off.replay(requests).identities()
        with Dispatcher(geometry, small_config(duration_s=0.1)) as cached_on:
            on_ids = cached_on.replay(requests).identities()
        assert off_ids == on_ids

    def test_environment_scopes_cache(self):
        """Same importance, different environment → separate cache entries."""
        config = small_config()
        geometry, requests = generate_trace(config)
        base = requests[0]
        other = AllocationRequest(
            request_id=base.request_id + 1,
            arrival_s=base.arrival_s,
            importance=base.importance,
            solver=base.solver,
            environment="cluster-9",
        )
        with Dispatcher(geometry, config) as dispatcher:
            dispatcher.serve(base)
            assert dispatcher.serve(base).cache_hit
            assert not dispatcher.serve(other).cache_hit

    def test_unknown_solver_rejected_at_construction(self):
        geometry, _ = generate_trace(small_config(duration_s=0.05))
        with pytest.raises(ConfigurationError, match="unknown solver"):
            Dispatcher(geometry, small_config(solver="simulated_annealing"))

    def test_unknown_solver_request_rejected_alone(self):
        """One request naming an unknown solver is answered ``rejected``;
        the rest of the trace, its batch included, is served unchanged."""
        from repro.telemetry import MetricsRegistry, use_registry

        config = small_config()
        geometry, requests = generate_trace(config)
        mixed = list(requests)
        mixed[5] = dataclasses.replace(requests[5], solver="nope")
        with Dispatcher(geometry, config) as dispatcher:
            baseline = dispatcher.replay(requests)
        registry = MetricsRegistry()
        with use_registry(registry), Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.replay(mixed)
            single = dispatcher.serve(mixed[5])
        assert len(report.responses) == len(requests)
        odd = report.responses[5]
        assert odd.rejected and odd.assignment == {} and odd.solver == "nope"
        assert single.rejected and single.assignment == {}
        assert report.rejected == 1
        for index, (got, want) in enumerate(zip(report.responses, baseline.responses)):
            if index != 5:
                assert got.identity() == want.identity()
        family = next(
            f for f in registry.families() if f.name == "repro_serve_rejections_total"
        )
        assert len(family.children) == 1
        counter = registry.get("repro_serve_rejections_total", reason="unknown_solver")
        assert counter.value == 1


class TestRolloutSolver:
    """The batched in-process miss path: solvers exposing ``solve_batch``
    answer a whole miss group with one lockstep rollout."""

    @pytest.fixture()
    def trained(self):
        from repro.rl.dqn import DQNAgent, DQNConfig
        from repro.rl.env import AllocationEnv

        config = small_config(solver="rollout", redraw_every=20)
        geometry, requests = generate_trace(config)
        env = AllocationEnv(geometry)
        agent = DQNAgent(
            env.state_dim,
            env.n_actions,
            DQNConfig(hidden_sizes=(16,), batch_size=8, warmup_transitions=16),
            seed=5,
        )
        for _ in range(2):  # nontrivial Q-values; rollouts are RNG-free
            agent.train_episode(AllocationEnv(geometry))
        return agent, config, geometry, requests

    def test_single_request_matches_direct_rollout(self, monkeypatch, trained):
        from repro.rl.env import AllocationEnv
        from repro.serve.dispatcher import RolloutSolver

        agent, config, geometry, requests = trained
        monkeypatch.setitem(dispatcher_module.SOLVERS, "rollout", RolloutSolver(agent))
        with Dispatcher(geometry, config) as dispatcher:
            response = dispatcher.serve(requests[0])
        direct = agent.solve(
            AllocationEnv(geometry.scaled(importance=requests[0].importance))
        ).as_assignment()
        assert response.ok
        assert response.assignment == direct

    def test_batched_miss_groups_match_serial_worker_path(self, monkeypatch, trained):
        """Replay through solve_batch == replay through the plain
        per-problem callable (which solves each miss group on its own)."""
        from repro.rl.env import AllocationEnv
        from repro.serve.dispatcher import RolloutSolver

        agent, config, geometry, requests = trained
        monkeypatch.setitem(dispatcher_module.SOLVERS, "rollout", RolloutSolver(agent))
        with Dispatcher(geometry, config) as dispatcher:
            batched = dispatcher.replay(requests)
        monkeypatch.setitem(
            dispatcher_module.SOLVERS,
            "rollout",
            lambda problem: agent.solve(AllocationEnv(problem)),
        )
        with Dispatcher(geometry, config) as dispatcher:
            serial = dispatcher.replay(requests)
        assert all(r.ok for r in batched.responses)
        assert batched.identities() == serial.identities()

    def test_warm_cache_replays_batched_answers(self, monkeypatch, trained):
        from repro.serve.dispatcher import RolloutSolver

        agent, config, geometry, requests = trained
        monkeypatch.setitem(dispatcher_module.SOLVERS, "rollout", RolloutSolver(agent))
        with Dispatcher(geometry, config) as dispatcher:
            dispatcher.replay(requests)
            report = dispatcher.replay(requests)
        assert all(r.cache_hit for r in report.responses)


class TestBackpressure:
    def test_saturation_sheds_and_bounds_queue(self, monkeypatch):
        """Overload → nonzero rejections, queue never exceeds its bound."""

        def slow_solver(problem):
            time.sleep(0.004)
            return density_greedy(problem)

        monkeypatch.setitem(dispatcher_module.SOLVERS, "slow", slow_solver)
        config = small_config(
            arrival_rate_hz=1500.0,
            duration_s=0.4,
            queue_depth=8,
            batch_max=4,
            solver="slow",
            cache=False,
            drift_sigma=1e-6,
            seed=2,
        )
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.run(requests)
        summary = report.summary
        assert report.rejected > 0
        assert summary["max_queue_depth"] <= config.queue_depth
        assert summary["ok"] + summary["rejected"] == len(requests)
        assert len(report.responses) == len(requests)
        shed = [r for r in report.responses if r.rejected]
        assert len(shed) == report.rejected
        assert all(r.assignment == {} for r in shed)

    def test_underload_sheds_nothing(self):
        """At a sustainable rate the queue absorbs everything."""
        config = small_config(arrival_rate_hz=500.0, duration_s=0.3)
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.run(requests)
        assert report.rejected == 0
        assert report.summary["ok"] == len(requests)
        # Open-loop wall-clock pacing: the drain takes about the trace span.
        assert report.summary["elapsed_s"] == pytest.approx(
            requests[-1].arrival_s, abs=0.25
        )

    def test_rejections_reach_the_registry(self, monkeypatch):
        from repro.telemetry import MetricsRegistry, use_registry

        def stuck_solver(problem):
            time.sleep(0.02)
            return density_greedy(problem)

        monkeypatch.setitem(dispatcher_module.SOLVERS, "stuck", stuck_solver)
        config = small_config(
            arrival_rate_hz=2000.0,
            duration_s=0.2,
            queue_depth=2,
            batch_max=1,
            solver="stuck",
            cache=False,
            drift_sigma=1e-6,
            seed=3,
        )
        geometry, requests = generate_trace(config)
        registry = MetricsRegistry()
        with use_registry(registry):
            with Dispatcher(geometry, config) as dispatcher:
                report = dispatcher.run(requests)
        assert report.rejected > 0
        families = {family.name for family in registry.families()}
        assert "repro_serve_rejections_total" in families
        assert "repro_serve_requests_total" in families
