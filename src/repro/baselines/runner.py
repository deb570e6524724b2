"""Cluster builders for the baseline protocols.

The baselines run on the same :class:`repro.sim.runner.Cluster` as BFT-BC —
same scheduler loop, replica host and retransmitting client driver — handed
their own :class:`~repro.core.config.SystemConfig` and state machines, so
experiments can run identical workloads against BFT-BC, BQS, and Phalanx and
compare the results (experiments E7/E8).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.baselines.bqs import BqsClient, BqsReplica
from repro.baselines.phalanx import PhalanxClient, PhalanxReplica
from repro.core.config import make_system
from repro.core.quorum import QuorumSystem
from repro.net.simnet import LinkProfile
from repro.obs.instrumentation import Instrumentation
from repro.sim.runner import Cluster, ClusterOptions

__all__ = ["build_bqs_cluster", "build_phalanx_cluster"]


def build_bqs_cluster(
    f: int = 1,
    *,
    scheme: str = "hmac",
    seed: int = 0,
    profile: Optional[LinkProfile] = None,
    replica_overrides: Optional[dict[int, Callable]] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> Cluster:
    """A BQS register deployment: 3f+1 replicas, quorums of 2f+1."""
    config = make_system(f, scheme=scheme, seed=b"bqs-seed-%d" % seed)

    options = ClusterOptions(
        f=f,
        scheme=scheme,
        seed=seed,
        profile=profile or LinkProfile.reliable(),
        replica_overrides=replica_overrides or {},
        instrumentation=instrumentation,
    )
    return Cluster(
        options, config=config, replica_factory=BqsReplica, client_factory=BqsClient
    )


def build_phalanx_cluster(
    f: int = 1,
    *,
    scheme: str = "hmac",
    seed: int = 0,
    profile: Optional[LinkProfile] = None,
    replica_overrides: Optional[dict[int, Callable]] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> Cluster:
    """A Phalanx deployment: 4f+1 replicas, quorums of 3f+1."""
    config = make_system(
        f,
        scheme=scheme,
        seed=b"phalanx-seed-%d" % seed,
        quorums=QuorumSystem.phalanx(f),
    )
    options = ClusterOptions(
        f=f,
        scheme=scheme,
        seed=seed,
        profile=profile or LinkProfile.reliable(),
        replica_overrides=replica_overrides or {},
        instrumentation=instrumentation,
    )
    return Cluster(
        options,
        config=config,
        replica_factory=PhalanxReplica,
        client_factory=PhalanxClient,
    )
