"""Cluster builders for the baseline protocols.

The baselines run on the same :class:`repro.sim.runner.Cluster` as BFT-BC —
same scheduler loop, replica host and retransmitting client driver — handed
their own :class:`~repro.core.config.SystemConfig` and state machines, so
experiments can run identical workloads against BFT-BC, BQS, and Phalanx and
compare the results (experiments E7/E8).  Both run on reliable links with
HMAC signatures; only the seed tag, quorum system and classes differ.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.bqs import BqsClient, BqsReplica
from repro.baselines.phalanx import PhalanxClient, PhalanxReplica
from repro.core.config import make_system
from repro.core.quorum import QuorumSystem
from repro.sim.runner import Cluster, ClusterOptions

__all__ = ["build_bqs_cluster", "build_phalanx_cluster"]


def _build(
    f: int,
    seed: int,
    tag: bytes,
    quorums: Optional[QuorumSystem],
    replica_cls: type,
    client_cls: type,
) -> Cluster:
    config = make_system(f, seed=b"%s-seed-%d" % (tag, seed), quorums=quorums)
    return Cluster(
        ClusterOptions(f=f, seed=seed),
        config=config,
        replica_factory=replica_cls,
        client_factory=client_cls,
    )


def build_bqs_cluster(f: int = 1, *, seed: int = 0) -> Cluster:
    """A BQS register deployment: 3f+1 replicas, quorums of 2f+1."""
    return _build(f, seed, b"bqs", None, BqsReplica, BqsClient)


def build_phalanx_cluster(f: int = 1, *, seed: int = 0) -> Cluster:
    """A Phalanx deployment: 4f+1 replicas, quorums of 3f+1."""
    return _build(
        f, seed, b"phalanx", QuorumSystem.phalanx(f), PhalanxReplica,
        PhalanxClient,
    )
