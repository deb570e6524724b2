"""Deterministic simulation harness.

Virtual-time scheduler, node adapters, workload generation, fault schedules,
metrics, history recording, and the cluster runner used by every test,
example, and benchmark.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Scheduler": "repro.sim.scheduler",
    "EventHandle": "repro.sim.scheduler",
    "SimulationError": "repro.errors",
    "ClientNode": "repro.sim.nodes",
    "ReplicaHost": "repro.sim.nodes",
    "ReplicaNode": "repro.sim.nodes",
    "ScriptStep": "repro.sim.nodes",
    "MultiObjectClientNode": "repro.sim.multi_node",
    "MultiScriptStep": "repro.sim.multi_node",
    "HistoryRecorder": "repro.sim.recorder",
    "MetricsCollector": "repro.sim.metrics",
    "OperationSample": "repro.sim.metrics",
    "Summary": "repro.sim.metrics",
    "FaultSchedule": "repro.sim.faults",
    "FaultOp": "repro.sim.faults",
    "FaultParam": "repro.sim.faults",
    "FAULT_OPS": "repro.sim.faults",
    "ShardCluster": "repro.sim.shard_cluster",
    "ShardClusterOptions": "repro.sim.shard_cluster",
    "build_shard_cluster": "repro.sim.shard_cluster",
    "ScheduleExplorer": "repro.sim.explorer",
    "ExplorationResult": "repro.sim.explorer",
    "MessageTrace": "repro.sim.tracing",
    "TraceEvent": "repro.sim.tracing",
    "SimHarness": "repro.sim.runner",
    "Cluster": "repro.sim.runner",
    "ClusterOptions": "repro.sim.runner",
    "build_cluster": "repro.sim.runner",
    "VARIANTS": "repro.sim.runner",
    "value_for": "repro.sim.workload",
    "write_script": "repro.sim.workload",
    "read_script": "repro.sim.workload",
    "alternating_script": "repro.sim.workload",
    "mixed_script": "repro.sim.workload",
    "make_scripts": "repro.sim.workload",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
