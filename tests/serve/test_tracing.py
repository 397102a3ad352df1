"""Request tracing through the dispatcher.

The observability contract under test: every request gets a trace id
echoed in its response; each cache-miss solve runs in a ``serve.solve``
span whose parent is the ``serve.request`` span of the request it
answers, tagged with that request's trace id; and a warm replay, which
solves nothing, opens no solve spans.
"""

from __future__ import annotations

from repro.serve import Dispatcher, ServeConfig, generate_trace
from repro.serve.schemas import AllocationRequest
from repro.telemetry import RunTrace, use_run_trace


def traced_config(**overrides) -> ServeConfig:
    defaults = dict(
        arrival_rate_hz=300.0,
        duration_s=0.1,
        n_tasks=8,
        n_processors=2,
        redraw_every=3,
        drift_sigma=0.5,
        seed=3,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestResponseTraceIds:
    def test_every_response_carries_a_unique_trace_id(self):
        config = traced_config()
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.replay(requests)
        ids = [r.trace_id for r in report.responses]
        assert all(ids)
        assert len(set(ids)) == len(ids)

    def test_caller_supplied_trace_id_is_echoed(self):
        config = traced_config()
        geometry, requests = generate_trace(config)
        base = requests[0]
        tagged = AllocationRequest(
            request_id=base.request_id,
            arrival_s=base.arrival_s,
            importance=base.importance,
            solver=base.solver,
            trace_id="caller-chose-this",
        )
        with Dispatcher(geometry, config) as dispatcher:
            response = dispatcher.serve(tagged)
        assert response.trace_id == "caller-chose-this"

    def test_trace_id_excluded_from_identity(self):
        config = traced_config()
        geometry, requests = generate_trace(config)
        with Dispatcher(geometry, config) as one:
            first = one.replay(requests)
        with Dispatcher(geometry, config) as two:
            second = two.replay(requests)
        # Different dispatchers mint different ids, identities still match.
        assert first.identities() == second.identities()
        assert first.responses[0].trace_id != second.responses[0].trace_id


def _solve_spans(trace: RunTrace) -> list:
    return [span for span in trace.spans if span.name == "serve.solve"]


class TestRequestSpans:
    def test_solve_spans_are_children_of_request_spans(self):
        config = traced_config()
        geometry, requests = generate_trace(config)
        trace = RunTrace(label="test")
        with use_run_trace(trace), Dispatcher(geometry, config) as dispatcher:
            report = dispatcher.replay(requests)

        solves = _solve_spans(trace)
        assert solves, "expected cache-miss solve spans"
        response_ids = {r.trace_id for r in report.responses}
        for span in solves:
            parent = trace.spans[span.parent]
            assert parent.name == "serve.request"
            assert parent.attrs["trace_id"] in response_ids
            assert parent.start <= span.start <= span.end <= parent.end
        # One solve per request span, one request span per miss group.
        parents = [span.parent for span in solves]
        assert len(parents) == len(set(parents))
        assert len(parents) == sum(1 for s in trace.spans if s.name == "serve.request")

    def test_warm_replay_adds_no_solve_span(self):
        config = traced_config()
        geometry, requests = generate_trace(config)
        trace = RunTrace(label="test")
        with use_run_trace(trace), Dispatcher(geometry, config) as dispatcher:
            dispatcher.replay(requests)
            first = len(trace.spans)
            solves = len(_solve_spans(trace))
            report = dispatcher.replay(requests)
        assert all(r.cache_hit for r in report.responses)
        assert len(_solve_spans(trace)) == solves
        assert [s.name for s in trace.spans[first:]] == ["serve.replay"]

    def test_cold_second_dispatcher_traces_its_own_requests(self):
        """A second cold dispatcher re-solves the same groups under request
        spans carrying its own trace ids."""
        config = traced_config()
        geometry, requests = generate_trace(config)
        trace = RunTrace(label="test")
        with use_run_trace(trace):
            with Dispatcher(geometry, config) as one:
                one.replay(requests)
            solves_after_first = len(_solve_spans(trace))
            with Dispatcher(geometry, config) as two:
                two.replay(requests)
        assert len(_solve_spans(trace)) == 2 * solves_after_first
        ids = [s.attrs["trace_id"] for s in trace.spans if s.name == "serve.request"]
        assert len(ids) == len(set(ids))
