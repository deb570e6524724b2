"""BFT-BC: Byzantine quorum replication that tolerates Byzantine clients.

A full reproduction of Liskov & Rodrigues, "Tolerating Byzantine Faulty
Clients in a Quorum System" (ICDCS 2006): the base three-phase protocol, the
two-phase optimized protocol (§6), the strong BFT-linearizable+ variant
(§7), the BQS and Phalanx baselines it compares against, the §4 correctness
conditions as executable checkers, a deterministic simulation harness, an
asyncio TCP deployment, a seed-deterministic chaos campaign engine with
invariant oracles and auto-minimized repro artifacts, a sharding layer
(consistent-hash placement over many replica groups with online Byzantine
reconfiguration — epoch changes installed by quorum-signed directory
entries, never consensus), and an open-loop production load harness
(Poisson arrivals and zipfian popularity over 10^5–10^6 lazily-keyed client
identities, judged against SLO targets and the analytical capacity model).

This module is the supported public API: everything an example, benchmark,
or downstream user needs is importable from ``repro`` directly.  Deeper
module paths are implementation detail (``tools/check_public_api.py``
enforces the boundary for the repo's own examples and tests).

Quickstart::

    from repro import Instrumentation, build_cluster, write_script

    instr = Instrumentation()
    cluster = build_cluster(f=1, variant="optimized", instrumentation=instr)
    alice = cluster.add_client("alice")
    alice.run_script(write_script("client:alice", 3) + [("read", None)])
    cluster.run()
    print(alice.client.last_result)
    print(sorted(instr.histograms))      # per-phase latency series
"""

from repro._exports import lazy_exports

__version__ = "1.1.0"

#: The facade: each public name and the module that defines it.  A name's
#: module is imported on its first access (see :mod:`repro._exports`).
_EXPORTS = {
    # core
    "make_system": "repro.core.config",
    "SystemConfig": "repro.core.config",
    "Variant": "repro.core.config",
    "QuorumSystem": "repro.core.quorum",
    "Timestamp": "repro.core.timestamp",
    "ZERO_TS": "repro.core.timestamp",
    "PrepareCertificate": "repro.core.certificates",
    "WriteCertificate": "repro.core.certificates",
    "BftBcClient": "repro.core.client",
    "OptimizedBftBcClient": "repro.core.client",
    "StrongBftBcClient": "repro.core.client",
    "BftBcReplica": "repro.core.replica",
    "OptimizedBftBcReplica": "repro.core.replica",
    "FastBftBcClient": "repro.core.client",
    "FastBftBcReplica": "repro.core.fast_replica",
    "ProofOfWriting": "repro.crypto.commitments",
    "MultiObjectClient": "repro.core.multiobject",
    "MultiObjectReplica": "repro.core.multiobject",
    # identity-layer scale: the writer ACL and per-client state budgets
    "NamespaceWriters": "repro.core.config",
    "ClientStateBudget": "repro.core.persistence",
    "ClientStateTable": "repro.core.persistence",
    # open-loop production load harness (E21)
    "LoadProfile": "repro.load.profile",
    "BurstPhase": "repro.load.profile",
    "LoadReport": "repro.load.profile",
    "SloTarget": "repro.load.profile",
    "DEFAULT_SLOS": "repro.load.profile",
    "OpenLoopGenerator": "repro.load.generator",
    "SimLoadOptions": "repro.load.harness",
    "run_open_loop": "repro.load.harness",
    "run_tcp_load": "repro.load.tcp",
    # sharding and online reconfiguration
    "HashRing": "repro.shard.ring",
    "ShardConfig": "repro.shard.directory",
    "ShardDirectory": "repro.shard.directory",
    "ShardReplica": "repro.shard.replica",
    "ShardRouter": "repro.shard.router",
    "Reconfigurator": "repro.shard.reconfig",
    "ShardCluster": "repro.sim.shard_cluster",
    "ShardClusterOptions": "repro.sim.shard_cluster",
    "build_shard_cluster": "repro.sim.shard_cluster",
    "AsyncShardRouter": "repro.net.shard_transport",
    "ShardReplicaServer": "repro.net.shard_transport",
    # observability
    "Instrumentation": "repro.obs.instrumentation",
    "LatencyHistogram": "repro.obs.histograms",
    "Span": "repro.obs.spans",
    "spans_to_jsonl": "repro.obs.export",
    "render_prometheus": "repro.obs.export",
    "format_phase_breakdown": "repro.analysis.report",
    "format_table": "repro.analysis.report",
    # networking / simulation
    "LinkProfile": "repro.net.simnet",
    "SimNetwork": "repro.net.simnet",
    "Scheduler": "repro.sim.scheduler",
    "Cluster": "repro.sim.runner",
    "ClusterOptions": "repro.sim.runner",
    "build_cluster": "repro.sim.runner",
    "FaultSchedule": "repro.sim.faults",
    "MetricsCollector": "repro.sim.metrics",
    "MessageTrace": "repro.sim.tracing",
    "MultiObjectClientNode": "repro.sim.multi_node",
    "ReplicaHost": "repro.sim.nodes",
    "write_script": "repro.sim.workload",
    "read_script": "repro.sim.workload",
    "value_for": "repro.sim.workload",
    # real-network transport and durability
    "AsyncClient": "repro.net.asyncio_transport",
    "ReplicaServer": "repro.net.asyncio_transport",
    "FileLogStore": "repro.storage.filelog",
    "MemoryStore": "repro.storage.base",
    "MuxEndpoint": "repro.net.mux",
    "PipelinedClient": "repro.net.mux",
    "OpRecord": "repro.net.mux",
    # deployment API: one spec, three transports (sim / tcp / process)
    "DeploymentSpec": "repro.cluster.spec",
    "deploy": "repro.cluster.deploy",
    "Deployment": "repro.cluster.deploy",
    "SimDeployment": "repro.cluster.deploy",
    "TcpDeployment": "repro.cluster.deploy",
    "ProcessDeployment": "repro.cluster.deploy",
    "ProcessCluster": "repro.cluster.process",
    "WorkerHandle": "repro.cluster.process",
    # baselines
    "build_bqs_cluster": "repro.baselines.runner",
    "build_phalanx_cluster": "repro.baselines.runner",
    # byzantine attack catalogue (the §3.2 issues, executable)
    "EquivocationAttack": "repro.byzantine.clients",
    "TimestampExhaustionAttack": "repro.byzantine.clients",
    "LurkingWriteAttack": "repro.byzantine.clients",
    "PartialWriteAttack": "repro.byzantine.clients",
    "Colluder": "repro.byzantine.clients",
    "BqsEquivocationAttack": "repro.byzantine.baseline_attacks",
    "BqsTimestampExhaustionAttack": "repro.byzantine.baseline_attacks",
    # chaos campaigns
    "CampaignConfig": "repro.chaos.plan",
    "EpisodePlan": "repro.chaos.plan",
    "ShardEpisodePlan": "repro.chaos.shard",
    "generate_plan": "repro.chaos.plan",
    "run_campaign": "repro.chaos.engine",
    "run_episode": "repro.chaos.engine",
    "run_shard_episode": "repro.chaos.shard",
    "minimize_episode": "repro.chaos.minimize",
    "replay_artifact": "repro.chaos.artifact",
    # correctness
    "History": "repro.spec.histories",
    "check_register_linearizable": "repro.spec.linearizability",
    "check_bft_linearizable": "repro.spec.bft_linearizability",
    "check_bft_linearizable_plus": "repro.spec.bft_linearizability",
    "check_lemma1": "repro.spec.invariants",
    "count_lurking_writes": "repro.spec.bft_linearizability",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, "__version__")
