"""Deterministic simulation harness.

Virtual-time scheduler, node adapters, workload generation, fault schedules,
metrics, history recording, and the cluster runner used by every test,
example, and benchmark.
"""

from repro.sim.explorer import ExplorationResult, ScheduleExplorer
from repro.sim.faults import FAULT_OPS, FaultOp, FaultParam, FaultSchedule
from repro.sim.metrics import MetricsCollector, OperationSample, Summary
from repro.sim.multi_node import MultiObjectClientNode, MultiScriptStep
from repro.sim.nodes import ClientNode, ReplicaHost, ReplicaNode, ScriptStep
from repro.sim.recorder import HistoryRecorder
from repro.sim.runner import (
    Cluster,
    ClusterOptions,
    SimHarness,
    VARIANTS,
    build_cluster,
)
from repro.sim.scheduler import EventHandle, Scheduler
from repro.sim.shard_cluster import (
    ShardCluster,
    ShardClusterOptions,
    build_shard_cluster,
)
from repro.sim.tracing import MessageTrace, TraceEvent
from repro.sim.workload import (
    alternating_script,
    make_scripts,
    mixed_script,
    read_script,
    value_for,
    write_script,
)

__all__ = [
    "Scheduler",
    "EventHandle",
    "SimulationError",
    "ClientNode",
    "ReplicaHost",
    "ReplicaNode",
    "ScriptStep",
    "MultiObjectClientNode",
    "MultiScriptStep",
    "HistoryRecorder",
    "MetricsCollector",
    "OperationSample",
    "Summary",
    "FaultSchedule",
    "FaultOp",
    "FaultParam",
    "FAULT_OPS",
    "ShardCluster",
    "ShardClusterOptions",
    "build_shard_cluster",
    "ScheduleExplorer",
    "ExplorationResult",
    "MessageTrace",
    "TraceEvent",
    "SimHarness",
    "Cluster",
    "ClusterOptions",
    "build_cluster",
    "VARIANTS",
    "value_for",
    "write_script",
    "read_script",
    "alternating_script",
    "mixed_script",
    "make_scripts",
]

from repro.errors import SimulationError  # noqa: E402  (re-export for convenience)
