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

from repro.core.certificates import (
    GENESIS_VALUE,
    PrepareCertificate,
    WriteCertificate,
    genesis_prepare_certificate,
)
from repro.core.client import (
    BftBcClient,
    FastBftBcClient,
    OptimizedBftBcClient,
    StrongBftBcClient,
)
from repro.core.config import SystemConfig, Variant, make_system
from repro.core.fast_operations import FastReadOperation, FastWriteOperation
from repro.core.fast_replica import FastBftBcReplica
from repro.core.messages import (
    FastPrepReply,
    FastPrepRequest,
    FastWriteReply,
    FastWriteRequest,
    Message,
    PrepareReply,
    PrepareRequest,
    ReadReply,
    ReadRequest,
    ReadTsPrepReply,
    ReadTsPrepRequest,
    ReadTsReply,
    ReadTsRequest,
    WriteReply,
    WriteRequest,
    message_from_wire,
    message_to_wire,
    message_wire_bytes,
    wire_cache_stats,
)
from repro.core.multiobject import (
    MultiObjectClient,
    MultiObjectReplica,
    ObjectMessage,
    ScopedSignatureScheme,
)
from repro.core.operations import Operation, ReadOperation, Send, WriteOperation
from repro.core.optimized_operations import OptimizedWriteOperation
from repro.core.phases import QuorumRound
from repro.core.quorum import QuorumSystem, client_id, replica_id
from repro.core.replica import BftBcReplica, OptimizedBftBcReplica, PlistEntry
from repro.core.strong_operations import StrongWriteOperation
from repro.core.timestamp import ZERO_TS, Timestamp, succ
from repro.core.verification import VerificationStats, Verifier

__all__ = [
    "make_system",
    "SystemConfig",
    "Variant",
    "QuorumSystem",
    "Timestamp",
    "ZERO_TS",
    "succ",
    "replica_id",
    "client_id",
    "GENESIS_VALUE",
    "PrepareCertificate",
    "WriteCertificate",
    "genesis_prepare_certificate",
    "BftBcClient",
    "OptimizedBftBcClient",
    "StrongBftBcClient",
    "FastBftBcClient",
    "BftBcReplica",
    "OptimizedBftBcReplica",
    "FastBftBcReplica",
    "PlistEntry",
    "MultiObjectClient",
    "MultiObjectReplica",
    "ObjectMessage",
    "ScopedSignatureScheme",
    "Operation",
    "WriteOperation",
    "ReadOperation",
    "OptimizedWriteOperation",
    "StrongWriteOperation",
    "FastWriteOperation",
    "FastReadOperation",
    "QuorumRound",
    "Verifier",
    "VerificationStats",
    "Send",
    "Message",
    "message_to_wire",
    "message_from_wire",
    "message_wire_bytes",
    "wire_cache_stats",
    "ReadTsRequest",
    "ReadTsReply",
    "PrepareRequest",
    "PrepareReply",
    "WriteRequest",
    "WriteReply",
    "ReadRequest",
    "ReadReply",
    "ReadTsPrepRequest",
    "ReadTsPrepReply",
    "FastPrepRequest",
    "FastPrepReply",
    "FastWriteRequest",
    "FastWriteReply",
]
