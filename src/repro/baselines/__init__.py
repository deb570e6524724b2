"""Baseline protocols the paper compares against (§8).

* :mod:`repro.baselines.bqs` — the original Malkhi-Reiter BQS register [9]
  (3f+1 replicas, no Byzantine-client handling) with the Phalanx write-back
  extension for read atomicity [10].
* :mod:`repro.baselines.phalanx` — the Phalanx Byzantine-client protocol
  [10]: 4f+1 replicas, echo certificates, masking-quorum reads that may
  return :data:`~repro.baselines.phalanx.NULL_READ`.
"""

from repro.baselines.bqs import (
    BqsClient,
    BqsReadOperation,
    BqsReplica,
    BqsWriteOperation,
)
from repro.baselines.phalanx import (
    NULL_READ,
    PhalanxClient,
    PhalanxReadOperation,
    PhalanxReplica,
    PhalanxWriteOperation,
)
from repro.baselines.runner import build_bqs_cluster, build_phalanx_cluster

__all__ = [
    "BqsReplica",
    "BqsClient",
    "BqsWriteOperation",
    "BqsReadOperation",
    "PhalanxReplica",
    "PhalanxClient",
    "PhalanxWriteOperation",
    "PhalanxReadOperation",
    "NULL_READ",
    "build_bqs_cluster",
    "build_phalanx_cluster",
]
