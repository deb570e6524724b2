"""Baseline protocols the paper compares against (§8).

* :mod:`repro.baselines.bqs` — the original Malkhi-Reiter BQS register [9]
  (3f+1 replicas, no Byzantine-client handling) with the Phalanx write-back
  extension for read atomicity [10].
* :mod:`repro.baselines.phalanx` — the Phalanx Byzantine-client protocol
  [10]: 4f+1 replicas, echo certificates, masking-quorum reads that may
  return :data:`~repro.baselines.phalanx.NULL_READ`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BqsReplica": "repro.baselines.bqs",
    "BqsClient": "repro.baselines.bqs",
    "BqsWriteOperation": "repro.baselines.bqs",
    "BqsReadOperation": "repro.baselines.bqs",
    "PhalanxReplica": "repro.baselines.phalanx",
    "PhalanxClient": "repro.baselines.phalanx",
    "PhalanxWriteOperation": "repro.baselines.phalanx",
    "PhalanxReadOperation": "repro.baselines.phalanx",
    "NULL_READ": "repro.baselines.phalanx",
    "build_bqs_cluster": "repro.baselines.runner",
    "build_phalanx_cluster": "repro.baselines.runner",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
