import pytest

from repro.edgesim.network import StarNetwork
from repro.edgesim.node import make_node
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan
from repro.edgesim.trace import JsonlTraceSink, Trace, TraceEvent, TracingSimulator
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError


@pytest.fixture
def traced_run():
    nodes = [make_node("laptop", 0), make_node("rpi-b", 1)]
    tasks = [
        SimTask(0, input_mb=30.0, memory_mb=10.0, true_importance=0.6),
        SimTask(1, input_mb=30.0, memory_mb=10.0, true_importance=0.4),
    ]
    simulator = TracingSimulator(EdgeSimulator(nodes, StarNetwork(), quality_threshold=1.0))
    plan = ExecutionPlan(((0, 0), (1, 1)))
    result, trace = simulator.run(tasks, plan)
    return tasks, result, trace


class TestTraceEvent:
    def test_negative_span_rejected(self):
        with pytest.raises(DataError):
            TraceEvent("execution", 0, 0, start=5.0, end=1.0)


class TestTracingSimulator:
    def test_result_matches_untraced_run(self, traced_run):
        tasks, result, trace = traced_run
        assert result.gate_crossed
        assert result.tasks_executed == 2

    def test_every_completed_task_has_three_spans(self, traced_run):
        tasks, result, trace = traced_run
        for task_id in result.completion_times:
            kinds = {e.kind for e in trace.for_task(task_id)}
            assert kinds == {"input", "execution", "result"}

    def test_spans_ordered_within_task(self, traced_run):
        tasks, result, trace = traced_run
        for task_id in result.completion_times:
            events = {e.kind: e for e in trace.for_task(task_id)}
            assert events["input"].end <= events["execution"].start + 1e-9
            assert events["execution"].end <= events["result"].start + 1e-9

    def test_result_arrival_matches_completion_time(self, traced_run):
        tasks, result, trace = traced_run
        for task_id, arrival in result.completion_times.items():
            result_event = next(e for e in trace.for_task(task_id) if e.kind == "result")
            assert result_event.end == pytest.approx(arrival)

    def test_decision_marker_set(self, traced_run):
        _, result, trace = traced_run
        assert trace.decision_time == pytest.approx(result.processing_time)

    def test_node_filter(self, traced_run):
        _, _, trace = traced_run
        executions = [e for e in trace.for_node(0) if e.kind == "execution"]
        assert all(e.node_id == 0 for e in executions)

    def test_redispatched_tasks_traced_on_their_survivor(self):
        """A task re-dispatched after its planned node died is drawn on the
        node that actually produced its result, not the dead planned one."""
        nodes = [make_node("rpi-b", 0), make_node("laptop", 1), make_node("rpi-a+", 2)]
        tasks = [
            SimTask(i, input_mb=5.0, memory_mb=10.0, true_importance=1.0 + i)
            for i in range(12)
        ]
        simulator = EdgeSimulator(nodes, StarNetwork(), quality_threshold=1.0)
        plan = ExecutionPlan(tuple((task.task_id, 0) for task in tasks))
        result, trace = TracingSimulator(simulator).run(
            tasks, plan, failures={0: 0.0}
        )
        assert result.tasks_executed == 12
        # Node 1 (the laptop) is the fastest survivor.
        assert result.completion_nodes == {task.task_id: 1 for task in tasks}
        assert trace.for_node(0) == []
        assert len(trace.for_node(1)) == 3 * 12
        for event in trace.executions():
            assert event.end - event.start == pytest.approx(
                nodes[1].execution_time(tasks[event.task_id].input_mb)
            )


class TestJsonlRoundTrip:
    def test_events_survive_serialize_parse_unchanged(self, traced_run):
        """Every TraceEvent round-trips exactly, float timestamps included."""
        _, _, trace = traced_run
        parsed = Trace.from_jsonl(trace.to_jsonl())
        assert parsed.events == trace.events
        assert parsed.decision_time == trace.decision_time
        for original, restored in zip(trace.events, parsed.events):
            assert restored.start == original.start  # exact float equality
            assert restored.end == original.end

    def test_awkward_float_timestamps_exact(self):
        trace = Trace(
            events=[TraceEvent("execution", 3, 1, start=0.1 + 0.2, end=10.123249999999997)],
            decision_time=1e-9,
        )
        parsed = Trace.from_jsonl(trace.to_jsonl())
        assert parsed.events[0].start == 0.1 + 0.2
        assert parsed.events[0].end == 10.123249999999997
        assert parsed.decision_time == 1e-9

    def test_empty_trace_and_none_decision(self):
        parsed = Trace.from_jsonl(Trace().to_jsonl())
        assert parsed.events == []
        assert parsed.decision_time is None

    def test_file_round_trip(self, tmp_path, traced_run):
        _, _, trace = traced_run
        path = tmp_path / "epoch.jsonl"
        trace.write_jsonl(path)
        assert Trace.read_jsonl(path).events == trace.events

    def test_unknown_kinds_skipped(self):
        text = (
            '{"kind": "meta", "events": 1, "decision_time": null}\n'
            '{"kind": "future_thing", "x": 1}\n'
            '{"kind": "event", "event": "input", "task_id": 0, "node_id": 1, "start": 0.0, "end": 1.5}\n'
        )
        parsed = Trace.from_jsonl(text)
        assert len(parsed.events) == 1
        assert parsed.events[0].node_id == 1

    def test_malformed_lines_rejected(self):
        with pytest.raises(DataError):
            Trace.from_jsonl("{broken")
        with pytest.raises(DataError):
            Trace.from_jsonl('{"kind": "event", "event": "input"}')


class TestGantt:
    def test_renders_lanes_and_glyphs(self, traced_run):
        _, _, trace = traced_run
        chart = trace.gantt(width=40)
        assert "channel" in chart
        assert "node 0" in chart and "node 1" in chart
        assert "=" in chart and "-" in chart
        assert "decision" in chart

    def test_empty_trace(self):
        assert Trace().gantt() == "(empty trace)"

    def test_narrow_width_rejected(self, traced_run):
        _, _, trace = traced_run
        with pytest.raises(ConfigurationError):
            trace.gantt(width=5)


class TestBoundedTrace:
    def test_ring_keeps_most_recent_and_counts_dropped(self):
        trace = Trace(max_events=3)
        for i in range(7):
            trace.add(TraceEvent("input", i, 0, float(i), float(i) + 0.5))
        assert len(trace.events) == 3
        assert [e.task_id for e in trace.events] == [4, 5, 6]
        assert trace.dropped == 4

    def test_unbounded_by_default(self):
        trace = Trace()
        for i in range(100):
            trace.add(TraceEvent("input", i, 0, 0.0, 1.0))
        assert len(trace.events) == 100
        assert trace.dropped == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace(max_events=0)

    def test_dropped_survives_jsonl_round_trip(self):
        trace = Trace(max_events=2)
        for i in range(5):
            trace.add(TraceEvent("result", i, 1, 0.0, 1.0))
        parsed = Trace.from_jsonl(trace.to_jsonl())
        assert parsed.dropped == 3
        assert [e.task_id for e in parsed.events] == [3, 4]

    def test_tracing_simulator_honors_bound(self, traced_run):
        tasks, _result, unbounded = traced_run
        nodes = [make_node("laptop", 0), make_node("rpi-b", 1)]
        simulator = TracingSimulator(
            EdgeSimulator(nodes, StarNetwork(), quality_threshold=1.0),
            max_events=2,
        )
        plan = ExecutionPlan(((0, 0), (1, 1)))
        _result2, bounded = simulator.run(tasks, plan)
        assert len(bounded.events) == 2
        assert bounded.dropped == len(unbounded.events) - 2
        # The ring keeps the *latest* spans of the full reconstruction.
        assert list(bounded.events) == list(unbounded.events)[-2:]


class TestJsonlTraceSink:
    def test_streams_events_and_meta_last(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.add(TraceEvent("input", 0, 1, 0.0, 1.0))
            sink.add(TraceEvent("result", 0, 1, 1.0, 2.0))
            sink.set_decision(1.5)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        import json as _json

        assert _json.loads(lines[-1])["kind"] == "meta"
        parsed = Trace.read_jsonl(path)
        assert len(parsed.events) == 2
        assert parsed.decision_time == 1.5

    def test_add_after_close_rejected(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError):
            sink.add(TraceEvent("input", 0, 0, 0.0, 1.0))
        sink.close()  # idempotent

    def test_fleet_run_streams_completions(self, tmp_path):
        from repro.edgesim.fleet import FleetConfig, FleetSimulator

        config = FleetConfig(n_nodes=64, n_regions=4, duration_s=5.0, seed=4)
        path = tmp_path / "fleet.jsonl"
        with JsonlTraceSink(path) as sink:
            result = FleetSimulator(config).run(trace=sink)
        parsed = Trace.read_jsonl(path)
        assert result.completed > 0
        assert len(parsed.events) == result.completed
        assert all(e.kind == "result" for e in parsed.events)

    def test_fleet_run_bounded_ring(self):
        from repro.edgesim.fleet import FleetConfig, FleetSimulator

        config = FleetConfig(n_nodes=64, n_regions=4, duration_s=5.0, seed=4)
        trace = Trace(max_events=10)
        result = FleetSimulator(config).run(trace=trace)
        assert len(trace.events) == min(10, result.completed)
        assert trace.dropped == max(0, result.completed - 10)
