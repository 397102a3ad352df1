"""Wire-schema contract: round-trip, forward tolerance, version policy."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.serve.schemas import (
    SCHEMA_VERSION,
    AllocationRequest,
    AllocationResponse,
    ServeConfig,
)


def make_request(**overrides):
    defaults = dict(
        request_id=7,
        arrival_s=0.125,
        importance=np.array([0.3, 0.9, 0.1]),
        solver="density_greedy",
        environment="cluster-2",
    )
    defaults.update(overrides)
    return AllocationRequest(**defaults)


class TestAllocationRequest:
    def test_round_trip(self):
        request = make_request()
        restored = AllocationRequest.from_dict(request.to_dict())
        assert restored.request_id == request.request_id
        assert restored.arrival_s == request.arrival_s
        assert restored.solver == request.solver
        assert restored.environment == request.environment
        np.testing.assert_array_equal(restored.importance, request.importance)

    def test_to_dict_is_json_plain(self):
        import json

        payload = make_request().to_dict()
        json.dumps(payload)  # no numpy scalars/arrays may leak through
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_unknown_fields_ignored(self):
        payload = make_request().to_dict()
        payload["added_in_v2"] = {"anything": 1}
        restored = AllocationRequest.from_dict(payload)
        assert restored.request_id == 7

    def test_newer_version_rejected(self):
        payload = make_request().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(DataError, match="newer than supported"):
            AllocationRequest.from_dict(payload)

    def test_parsed_version_preserved(self):
        payload = make_request().to_dict()
        payload["schema_version"] = 1
        assert AllocationRequest.from_dict(payload).schema_version == 1

    def test_missing_required_field_is_data_error(self):
        payload = make_request().to_dict()
        del payload["importance"]
        with pytest.raises(DataError, match="missing required field"):
            AllocationRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "importance", [[], [-0.5, 1.0], [np.nan, 1.0], [np.inf, 1.0]]
    )
    def test_invalid_importance_rejected(self, importance):
        with pytest.raises(DataError):
            make_request(importance=np.asarray(importance))

    def test_negative_arrival_rejected(self):
        with pytest.raises(DataError):
            make_request(arrival_s=-0.1)


class TestAllocationResponse:
    def test_round_trip_restores_int_assignment_keys(self):
        response = AllocationResponse(
            request_id=3,
            status="ok",
            assignment={2: 0, 5: 1},
            objective=1.25,
            cache_hit=True,
            latency_s=0.004,
        )
        restored = AllocationResponse.from_dict(response.to_dict())
        assert restored.assignment == {2: 0, 5: 1}
        assert restored.objective == response.objective
        assert restored.cache_hit is True

    def test_bad_status_rejected(self):
        with pytest.raises(DataError, match="status"):
            AllocationResponse(request_id=0, status="teapot")

    def test_identity_excludes_timing(self):
        fast = AllocationResponse(
            request_id=1, status="ok", assignment={0: 1}, objective=0.5, latency_s=1e-6
        )
        slow = dataclasses.replace(fast, latency_s=3.0, queue_delay_s=2.9, cache_hit=True)
        assert fast.identity() == slow.identity()

    def test_unknown_fields_ignored(self):
        payload = AllocationResponse(request_id=0, status="rejected").to_dict()
        payload["shard"] = 4
        assert AllocationResponse.from_dict(payload).rejected


class TestServeConfig:
    def test_round_trip(self):
        config = ServeConfig(arrival_rate_hz=1500.0, duration_s=0.5, sampler="gauss_poisson")
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_jobs_is_one_and_not_serialized(self):
        """The dispatcher solves in-process: ``jobs`` only accepts 1, an
        old wire dict carrying ``"jobs": 1`` still parses, and
        ``to_dict`` no longer emits it."""
        assert ServeConfig(jobs=1) == ServeConfig()
        assert "jobs" not in ServeConfig().to_dict()
        assert ServeConfig.from_dict({**ServeConfig().to_dict(), "jobs": 1}) == ServeConfig()

    def test_unknown_fields_ignored(self):
        payload = ServeConfig().to_dict()
        payload["target_p99_ms"] = 5.0
        assert ServeConfig.from_dict(payload) == ServeConfig()

    def test_newer_version_rejected(self):
        payload = ServeConfig().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(DataError):
            ServeConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"arrival_rate_hz": 0.0},
            {"duration_s": -1.0},
            {"sampler": "uniform"},
            {"burst_sigma": -0.1},
            {"queue_depth": 0},
            {"batch_max": 0},
            {"jobs": 0},
            {"n_tasks": 0},
            {"drift_sigma": -1e-9},
            {"redraw_every": -1},
            {"jobs": 2},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            ServeConfig(**overrides)
