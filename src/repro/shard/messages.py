"""Wire messages for directory maintenance and reconfiguration.

Four conversations, all request/reply:

* ``DIR-REQ``/``DIR-REPLY`` — a client (usually after an ``EPOCH-STALE``
  rebuff) fetches a shard's full entry chain from a replica and installs
  it through its verified :class:`~repro.shard.directory.ShardDirectory`.
* ``CFG-SIGN-REQ``/``CFG-SIGN-REPLY`` — the reconfigurator asks current
  members to endorse a successor configuration; each correct member signs
  at most one successor per epoch.
* ``EPOCH-INSTALL``/``EPOCH-ACK`` — the assembled quorum-signed entry is
  pushed to old and new members.
* ``XFER-REQ``/``XFER-REPLY`` — a bootstrapping replica pulls per-object
  durable state (snapshot + fingerprint + epoch) from peers.

None of these carry their own signatures beyond what the embedded
directory entries and per-object prepare certificates already have: the
authenticated artefacts are self-certifying, so transport-level origin is
irrelevant to safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.core.messages import (
    BYTES,
    DICT,
    INT,
    STR,
    VALUE,
    Message,
    register_message,
    tuple_of,
    wire_field,
)

__all__ = [
    "DirectoryRequest",
    "DirectoryReply",
    "ConfigSignRequest",
    "ConfigSignReply",
    "InstallEpochRequest",
    "InstallEpochAck",
    "StateTransferRequest",
    "StateTransferReply",
]


@register_message
@dataclass(frozen=True)
class DirectoryRequest(Message):
    """Fetch one shard's configuration chain."""

    KIND: ClassVar[str] = "DIR-REQ"
    shard: str = wire_field("shard", STR)


@register_message
@dataclass(frozen=True)
class DirectoryReply(Message):
    """The full entry chain (oldest first); genesis is implicit."""

    KIND: ClassVar[str] = "DIR-REPLY"
    shard: str = wire_field("shard", STR)
    entries: tuple[dict[str, Any], ...] = wire_field("entries", tuple_of(DICT))


@register_message
@dataclass(frozen=True)
class ConfigSignRequest(Message):
    """Ask a current member to endorse a successor configuration."""

    KIND: ClassVar[str] = "CFG-SIGN-REQ"
    config: dict[str, Any] = wire_field("config", DICT)


@register_message
@dataclass(frozen=True)
class ConfigSignReply(Message):
    """One member's signature over a successor config's statement."""

    KIND: ClassVar[str] = "CFG-SIGN-REPLY"
    shard: str = wire_field("shard", STR)
    epoch: int = wire_field("epoch", INT)
    signature: Any = wire_field("signature", VALUE)


@register_message
@dataclass(frozen=True)
class InstallEpochRequest(Message):
    """Push a quorum-signed directory entry to a replica."""

    KIND: ClassVar[str] = "EPOCH-INSTALL"
    entry: dict[str, Any] = wire_field("entry", DICT)


@register_message
@dataclass(frozen=True)
class InstallEpochAck(Message):
    """A replica's acknowledgement that it now serves ``epoch``."""

    KIND: ClassVar[str] = "EPOCH-ACK"
    shard: str = wire_field("shard", STR)
    epoch: int = wire_field("epoch", INT)


@register_message
@dataclass(frozen=True)
class StateTransferRequest(Message):
    """A bootstrapping replica's pull for per-object durable state."""

    KIND: ClassVar[str] = "XFER-REQ"
    shard: str = wire_field("shard", STR)
    nonce: bytes = wire_field("nonce", BYTES)


@register_message
@dataclass(frozen=True)
class StateTransferReply(Message):
    """One peer's per-object snapshots.

    ``objects`` maps object id to ``{"snapshot": <snapshot_wire>,
    "fingerprint": <bytes>}``.  The receiver trusts neither field: it
    recomputes the fingerprint from the snapshot and validates the
    embedded prepare certificate before adopting anything.
    """

    KIND: ClassVar[str] = "XFER-REPLY"
    shard: str = wire_field("shard", STR)
    nonce: bytes = wire_field("nonce", BYTES)
    epoch: int = wire_field("epoch", INT)
    objects: dict[str, Any] = wire_field("objects", DICT)
