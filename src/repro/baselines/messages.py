"""Wire messages for the baseline protocols (BQS [9] and Phalanx [10]).

Registered in the same message registry as the core protocol, with distinct
kind tags, so they flow through the same simulated network and transports;
declared with the same field types, so the same derived codec carries them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional

from repro.core.messages import (
    BYTES,
    SIGNATURE,
    TIMESTAMP,
    VALUE,
    Message,
    optional,
    register_message,
    tuple_of,
    wire_field,
)
from repro.core.timestamp import Timestamp
from repro.crypto.signatures import Signature

__all__ = [
    "BqsReadTsRequest",
    "BqsReadTsReply",
    "BqsWriteRequest",
    "BqsWriteReply",
    "BqsReadRequest",
    "BqsReadReply",
    "PhxReadTsRequest",
    "PhxReadTsReply",
    "PhxEchoRequest",
    "PhxEchoReply",
    "PhxWriteRequest",
    "PhxWriteReply",
    "PhxReadRequest",
    "PhxReadReply",
]


# ---------------------------------------------------------------------------
# BQS (Malkhi-Reiter basic register; §3.1 of the ICDCS paper)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class BqsReadTsRequest(Message):
    KIND: ClassVar[str] = "BQS-READ-TS"
    nonce: bytes = wire_field("nonce", BYTES)


@register_message
@dataclass(frozen=True)
class BqsReadTsReply(Message):
    KIND: ClassVar[str] = "BQS-READ-TS-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class BqsWriteRequest(Message):
    """Store ``(value, ts)``; ``writer_sig`` authenticates value+timestamp."""

    KIND: ClassVar[str] = "BQS-WRITE"
    value: Any = wire_field("value", VALUE)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    writer_sig: Signature = wire_field("wsig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class BqsWriteReply(Message):
    KIND: ClassVar[str] = "BQS-WRITE-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class BqsReadRequest(Message):
    KIND: ClassVar[str] = "BQS-READ"
    nonce: bytes = wire_field("nonce", BYTES)


@register_message
@dataclass(frozen=True)
class BqsReadReply(Message):
    """Replica's stored value, timestamp, and the writer's signature."""

    KIND: ClassVar[str] = "BQS-READ-REPLY"
    value: Any = wire_field("value", VALUE)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    # None before the first write
    writer_sig: Optional[Signature] = wire_field("wsig", optional(SIGNATURE))
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)


# ---------------------------------------------------------------------------
# Phalanx Byzantine-client protocol (4f+1 replicas, echo certificates)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class PhxReadTsRequest(Message):
    KIND: ClassVar[str] = "PHX-READ-TS"
    nonce: bytes = wire_field("nonce", BYTES)


@register_message
@dataclass(frozen=True)
class PhxReadTsReply(Message):
    KIND: ClassVar[str] = "PHX-READ-TS-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class PhxEchoRequest(Message):
    """Ask replicas to vouch for ``(ts, h(value))`` before the write."""

    KIND: ClassVar[str] = "PHX-ECHO"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    value_hash: bytes = wire_field("hash", BYTES)
    # client's, over the echo statement
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class PhxEchoReply(Message):
    KIND: ClassVar[str] = "PHX-ECHO-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    value_hash: bytes = wire_field("hash", BYTES)
    # replica's echo signature (certificate entry)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class PhxWriteRequest(Message):
    """The write proper, justified by a quorum of echo signatures."""

    KIND: ClassVar[str] = "PHX-WRITE"
    value: Any = wire_field("value", VALUE)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    echo_sigs: tuple[Signature, ...] = wire_field("echoes", tuple_of(SIGNATURE))
    signature: Signature = wire_field("sig", SIGNATURE)  # client's


@register_message
@dataclass(frozen=True)
class PhxWriteReply(Message):
    KIND: ClassVar[str] = "PHX-WRITE-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class PhxReadRequest(Message):
    KIND: ClassVar[str] = "PHX-READ"
    nonce: bytes = wire_field("nonce", BYTES)


@register_message
@dataclass(frozen=True)
class PhxReadReply(Message):
    """Masking-quorum read reply: no transferable proof is included, so the
    reader must see f+1 matching replies to trust a value."""

    KIND: ClassVar[str] = "PHX-READ-REPLY"
    value: Any = wire_field("value", VALUE)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)
