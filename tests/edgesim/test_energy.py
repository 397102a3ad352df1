import pytest

from repro.edgesim.energy import (
    POWER_PRESETS,
    EnergyReport,
    energy_of_run,
    estimate_energy,
    node_power,
)
from repro.edgesim.network import StarNetwork
from repro.edgesim.node import EdgeNode, make_node
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan, SimResult
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError


@pytest.fixture
def nodes():
    return [make_node("laptop", 0), make_node("rpi-b", 1)]


class TestNodePower:
    def test_all_presets_covered(self, nodes):
        for name in POWER_PRESETS:
            idle, active = node_power(make_node(name, 0))
            assert 0 < idle < active

    def test_unknown_preset_rejected(self):
        rogue = EdgeNode(9, "fpga", compute_s_per_bit=1e-8, memory_mb=100.0)
        with pytest.raises(ConfigurationError):
            node_power(rogue)


class TestEstimateEnergy:
    def _result(self, pt=100.0):
        return SimResult(
            processing_time=pt,
            tasks_executed=1,
            importance_achieved=1.0,
            gate_crossed=True,
            completion_times={0: pt},
        )

    def test_idle_floor_scales_with_horizon(self, nodes):
        short = estimate_energy(nodes, {}, self._result(10.0), transfer_seconds=0.0)
        long = estimate_energy(nodes, {}, self._result(100.0), transfer_seconds=0.0)
        assert long.idle_j == pytest.approx(10 * short.idle_j)
        assert short.compute_j == 0.0

    def test_compute_energy_added_for_executed_tasks(self, nodes):
        with_work = estimate_energy(
            nodes, {1: [100.0]}, self._result(1000.0), transfer_seconds=0.0
        )
        without = estimate_energy(nodes, {}, self._result(1000.0), transfer_seconds=0.0)
        assert with_work.compute_j > 0.0
        assert with_work.total_j > without.total_j

    def test_busy_time_clamped_to_horizon(self, nodes):
        report = estimate_energy(
            nodes, {1: [1e6]}, self._result(10.0), transfer_seconds=0.0
        )
        idle_w, active_w = node_power(nodes[1])
        assert report.compute_j <= (active_w - idle_w) * 10.0 + 1e-9

    def test_infinite_pt_rejected(self, nodes):
        bad = SimResult(float("inf"), 0, 0.0, False, {})
        with pytest.raises(ConfigurationError):
            estimate_energy(nodes, {}, bad, transfer_seconds=0.0)


class TestEnergyOfRun:
    def test_end_to_end_accounting(self, nodes):
        tasks = [
            SimTask(0, input_mb=50.0, memory_mb=10.0, true_importance=0.7),
            SimTask(1, input_mb=50.0, memory_mb=10.0, true_importance=0.3),
        ]
        network = StarNetwork()
        simulator = EdgeSimulator(nodes, network, quality_threshold=0.99)
        plan = ExecutionPlan(((0, 0), (1, 1)))
        result = simulator.run(tasks, plan)
        report = energy_of_run(nodes, tasks, plan, result, network)
        assert report.total_j > 0.0
        assert report.compute_j > 0.0
        assert report.radio_j > 0.0

    def test_fewer_tasks_less_energy(self, nodes):
        """The importance-aware early stop saves energy, not just time."""
        tasks = [
            SimTask(i, input_mb=50.0, memory_mb=10.0, true_importance=imp)
            for i, imp in enumerate([0.9, 0.05, 0.05])
        ]
        network = StarNetwork()
        simulator = EdgeSimulator(nodes, network, quality_threshold=0.85)
        smart = ExecutionPlan(((0, 0), (1, 1), (2, 1)))   # important first
        blind = ExecutionPlan(((1, 1), (2, 1), (0, 0)))   # important last
        smart_result = simulator.run(tasks, smart)
        blind_result = simulator.run(tasks, blind)
        smart_energy = energy_of_run(nodes, tasks, smart, smart_result, network)
        blind_energy = energy_of_run(nodes, tasks, blind, blind_result, network)
        assert smart_energy.total_j < blind_energy.total_j

    def test_redispatched_work_not_charged_to_failed_node(self, nodes):
        """A node dead from t=0 executes nothing, so it draws no compute energy."""
        tasks = [
            SimTask(i, input_mb=50.0, memory_mb=10.0, true_importance=0.5)
            for i in range(2)
        ]
        network = StarNetwork()
        simulator = EdgeSimulator(nodes, network, quality_threshold=0.99)
        plan = ExecutionPlan(((0, 0), (1, 0)))  # everything planned on node 0
        result = simulator.run(tasks, plan, failures={0: 0.0})
        assert set(result.completion_nodes.values()) == {1}
        report = energy_of_run(nodes, tasks, plan, result, network)
        # Compute energy does not depend on transfer time.
        survivor_only = estimate_energy(
            nodes, {1: [task.input_mb for task in tasks]}, result, transfer_seconds=0.0
        )
        assert report.compute_j == survivor_only.compute_j
