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

from repro.analysis import format_phase_breakdown, format_table
from repro.baselines import build_bqs_cluster, build_phalanx_cluster
from repro.byzantine import (
    BqsEquivocationAttack,
    BqsTimestampExhaustionAttack,
    Colluder,
    EquivocationAttack,
    LurkingWriteAttack,
    PartialWriteAttack,
    TimestampExhaustionAttack,
)
from repro.chaos import (
    CampaignConfig,
    EpisodePlan,
    ShardEpisodePlan,
    generate_plan,
    minimize_episode,
    replay_artifact,
    run_campaign,
    run_episode,
    run_shard_episode,
)
from repro.core import (
    BftBcClient,
    BftBcReplica,
    FastBftBcClient,
    FastBftBcReplica,
    MultiObjectClient,
    MultiObjectReplica,
    OptimizedBftBcClient,
    OptimizedBftBcReplica,
    PrepareCertificate,
    QuorumSystem,
    StrongBftBcClient,
    SystemConfig,
    Timestamp,
    Variant,
    WriteCertificate,
    ZERO_TS,
    make_system,
)
from repro.core.config import (
    AccessPolicy,
    ExplicitWriters,
    NamespaceWriters,
    PredicateWriters,
)
from repro.core.persistence import ClientStateBudget, ClientStateTable
from repro.cluster import (
    Deployment,
    DeploymentSpec,
    ProcessCluster,
    ProcessDeployment,
    SimDeployment,
    TcpDeployment,
    WorkerHandle,
    deploy,
)
from repro.crypto.commitments import ProofOfWriting
from repro.load import (
    BurstPhase,
    DEFAULT_SLOS,
    LoadProfile,
    LoadReport,
    OpenLoopGenerator,
    SimLoadOptions,
    SloTarget,
    run_open_loop,
    run_tcp_load,
)
from repro.net.asyncio_transport import AsyncClient, ReplicaServer
from repro.net.mux import MuxEndpoint, OpRecord, PipelinedClient
from repro.net.shard_transport import AsyncShardRouter, ShardReplicaServer
from repro.net.simnet import LinkProfile, SimNetwork
from repro.obs import (
    Instrumentation,
    LatencyHistogram,
    Span,
    render_prometheus,
    spans_to_jsonl,
)
from repro.shard import (
    HashRing,
    Reconfigurator,
    ShardConfig,
    ShardDirectory,
    ShardReplica,
    ShardRouter,
)
from repro.sim import (
    Cluster,
    ClusterOptions,
    FaultSchedule,
    MessageTrace,
    MetricsCollector,
    MultiObjectClientNode,
    ReplicaHost,
    Scheduler,
    ShardCluster,
    ShardClusterOptions,
    build_cluster,
    build_shard_cluster,
    read_script,
    value_for,
    write_script,
)
from repro.spec import (
    History,
    check_bft_linearizable,
    check_bft_linearizable_plus,
    check_lemma1,
    check_register_linearizable,
    count_lurking_writes,
)
from repro.storage import FileLogStore, MemoryStore

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "make_system",
    "SystemConfig",
    "Variant",
    "QuorumSystem",
    "Timestamp",
    "ZERO_TS",
    "PrepareCertificate",
    "WriteCertificate",
    "BftBcClient",
    "OptimizedBftBcClient",
    "StrongBftBcClient",
    "BftBcReplica",
    "OptimizedBftBcReplica",
    "FastBftBcClient",
    "FastBftBcReplica",
    "ProofOfWriting",
    "MultiObjectClient",
    "MultiObjectReplica",
    # identity-layer scale: access policies and per-client state budgets
    "AccessPolicy",
    "ExplicitWriters",
    "NamespaceWriters",
    "PredicateWriters",
    "ClientStateBudget",
    "ClientStateTable",
    # open-loop production load harness (E21)
    "LoadProfile",
    "BurstPhase",
    "LoadReport",
    "SloTarget",
    "DEFAULT_SLOS",
    "OpenLoopGenerator",
    "SimLoadOptions",
    "run_open_loop",
    "run_tcp_load",
    # sharding and online reconfiguration
    "HashRing",
    "ShardConfig",
    "ShardDirectory",
    "ShardReplica",
    "ShardRouter",
    "Reconfigurator",
    "ShardCluster",
    "ShardClusterOptions",
    "build_shard_cluster",
    "AsyncShardRouter",
    "ShardReplicaServer",
    # observability
    "Instrumentation",
    "LatencyHistogram",
    "Span",
    "spans_to_jsonl",
    "render_prometheus",
    "format_phase_breakdown",
    "format_table",
    # networking / simulation
    "LinkProfile",
    "SimNetwork",
    "Scheduler",
    "Cluster",
    "ClusterOptions",
    "build_cluster",
    "FaultSchedule",
    "MetricsCollector",
    "MessageTrace",
    "MultiObjectClientNode",
    "ReplicaHost",
    "write_script",
    "read_script",
    "value_for",
    # real-network transport and durability
    "AsyncClient",
    "ReplicaServer",
    "FileLogStore",
    "MemoryStore",
    "MuxEndpoint",
    "PipelinedClient",
    "OpRecord",
    # deployment API: one spec, three transports (sim / tcp / process)
    "DeploymentSpec",
    "deploy",
    "Deployment",
    "SimDeployment",
    "TcpDeployment",
    "ProcessDeployment",
    "ProcessCluster",
    "WorkerHandle",
    # baselines
    "build_bqs_cluster",
    "build_phalanx_cluster",
    # byzantine attack catalogue (the §3.2 issues, executable)
    "EquivocationAttack",
    "TimestampExhaustionAttack",
    "LurkingWriteAttack",
    "PartialWriteAttack",
    "Colluder",
    "BqsEquivocationAttack",
    "BqsTimestampExhaustionAttack",
    # chaos campaigns
    "CampaignConfig",
    "EpisodePlan",
    "ShardEpisodePlan",
    "generate_plan",
    "run_campaign",
    "run_episode",
    "run_shard_episode",
    "minimize_episode",
    "replay_artifact",
    # correctness
    "History",
    "check_register_linearizable",
    "check_bft_linearizable",
    "check_bft_linearizable_plus",
    "check_lemma1",
    "count_lurking_writes",
]
