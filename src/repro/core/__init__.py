"""The paper's primary contribution: the BFT-BC protocol family.

Public surface:

* :func:`~repro.core.config.make_system` — build a configured deployment.
* :class:`~repro.core.client.BftBcClient` /
  :class:`~repro.core.client.OptimizedBftBcClient` /
  :class:`~repro.core.client.StrongBftBcClient` — the three client variants.
* :class:`~repro.core.replica.BftBcReplica` /
  :class:`~repro.core.replica.OptimizedBftBcReplica` — the replica variants.
* :class:`~repro.core.quorum.QuorumSystem`,
  :class:`~repro.core.timestamp.Timestamp`, certificates, and messages.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "make_system": "repro.core.config",
    "SystemConfig": "repro.core.config",
    "Variant": "repro.core.config",
    "QuorumSystem": "repro.core.quorum",
    "Timestamp": "repro.core.timestamp",
    "ZERO_TS": "repro.core.timestamp",
    "succ": "repro.core.timestamp",
    "replica_id": "repro.core.quorum",
    "client_id": "repro.core.quorum",
    "GENESIS_VALUE": "repro.core.certificates",
    "PrepareCertificate": "repro.core.certificates",
    "WriteCertificate": "repro.core.certificates",
    "genesis_prepare_certificate": "repro.core.certificates",
    "BftBcClient": "repro.core.client",
    "OptimizedBftBcClient": "repro.core.client",
    "StrongBftBcClient": "repro.core.client",
    "FastBftBcClient": "repro.core.client",
    "BftBcReplica": "repro.core.replica",
    "OptimizedBftBcReplica": "repro.core.replica",
    "FastBftBcReplica": "repro.core.fast_replica",
    "PlistEntry": "repro.core.persistence",
    "MultiObjectClient": "repro.core.multiobject",
    "MultiObjectReplica": "repro.core.multiobject",
    "ObjectMessage": "repro.core.multiobject",
    "ScopedSignatureScheme": "repro.core.multiobject",
    "Operation": "repro.core.operations",
    "WriteOperation": "repro.core.operations",
    "ReadOperation": "repro.core.operations",
    "OptimizedWriteOperation": "repro.core.optimized_operations",
    "StrongWriteOperation": "repro.core.strong_operations",
    "FastWriteOperation": "repro.core.fast_operations",
    "FastReadOperation": "repro.core.fast_operations",
    "QuorumRound": "repro.core.phases",
    "Verifier": "repro.core.verification",
    "VerificationStats": "repro.core.verification",
    "Send": "repro.core.phases",
    "Message": "repro.core.messages",
    "message_to_wire": "repro.core.messages",
    "message_from_wire": "repro.core.messages",
    "message_wire_bytes": "repro.core.messages",
    "wire_cache_stats": "repro.core.messages",
    "ReadTsRequest": "repro.core.messages",
    "ReadTsReply": "repro.core.messages",
    "PrepareRequest": "repro.core.messages",
    "PrepareReply": "repro.core.messages",
    "WriteRequest": "repro.core.messages",
    "WriteReply": "repro.core.messages",
    "ReadRequest": "repro.core.messages",
    "ReadReply": "repro.core.messages",
    "ReadTsPrepRequest": "repro.core.messages",
    "ReadTsPrepReply": "repro.core.messages",
    "FastPrepRequest": "repro.core.messages",
    "FastPrepReply": "repro.core.messages",
    "FastWriteRequest": "repro.core.messages",
    "FastWriteReply": "repro.core.messages",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
