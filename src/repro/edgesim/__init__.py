"""Discrete-event simulator of the paper's edge testbed (Fig. 8).

Nine Raspberry Pis (models A+/B/B+) and one laptop controller, all joined
by WiFi in a star topology. The simulator reproduces the paper's
Processing Time metric PT = t_s − t_c: the span from experiment start to
the instant the aggregated industry decision can be made. Task inputs are
shipped over the shared WiFi channel, executed serially per node at a
per-bit compute rate (Pi A+ calibrated to the paper's 4.75e-7 s/bit), and
results return to the controller, which declares the decision once the
completed tasks' cumulative *true* importance crosses a credibility
threshold — the mechanism by which importance-aware allocators finish
earlier than importance-blind ones.

:class:`EdgeSimulator` is the one engine for that epoch, including
node failures and task dependencies. :class:`FleetSimulator` applies the
same timing model to open-loop fleets of 10k-100k nodes with
hierarchical regional topologies, node churn, and O(nodes + windows)
streaming metrics; it simulates a stream of arrivals, not a decision
epoch. :func:`run_fleet_sharded` takes the fleet engine multiprocess:
region groups run as independent conservative-DES shards on the worker
pool and merge into one bitwise-deterministic :class:`FleetResult`,
opening the 1M+ node regime.
"""

from repro.edgesim.node import EdgeNode, NODE_PRESETS, make_node
from repro.edgesim.network import RegionalNetwork, StarNetwork, SwitchedNetwork
from repro.edgesim.events import CalendarQueue, Event, EventQueue
from repro.edgesim.workload import FleetWorkload, SimTask, WorkloadGenerator
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan, SimResult
from repro.edgesim.fleet import FleetConfig, FleetResult, FleetSimulator
from repro.edgesim.shard import (
    LookaheadBarrier,
    ShardedRun,
    plan_groups,
    result_digest,
    run_fleet_sharded,
)
from repro.edgesim.energy import EnergyReport, energy_of_run, estimate_energy
from repro.edgesim.trace import JsonlTraceSink, Trace, TraceEvent, TracingSimulator
from repro.edgesim.testbed import paper_testbed, scaled_testbed

__all__ = [
    "EdgeNode",
    "NODE_PRESETS",
    "make_node",
    "StarNetwork",
    "SwitchedNetwork",
    "RegionalNetwork",
    "Event",
    "EventQueue",
    "CalendarQueue",
    "SimTask",
    "WorkloadGenerator",
    "FleetWorkload",
    "EdgeSimulator",
    "ExecutionPlan",
    "SimResult",
    "FleetSimulator",
    "FleetConfig",
    "FleetResult",
    "LookaheadBarrier",
    "ShardedRun",
    "plan_groups",
    "result_digest",
    "run_fleet_sharded",
    "EnergyReport",
    "estimate_energy",
    "energy_of_run",
    "Trace",
    "TraceEvent",
    "TracingSimulator",
    "JsonlTraceSink",
    "paper_testbed",
    "scaled_testbed",
]
