"""Signed-statement builders for the baseline protocols.

Each builder returns the canonical bytes of its statement tuple, encoded
once, ready for ``sign`` or ``verify``.
"""

from __future__ import annotations

from typing import Any

from repro.core.timestamp import Timestamp
from repro.encoding import canonical_encode

__all__ = [
    "bqs_write_statement",
    "bqs_read_ts_reply_statement",
    "bqs_write_reply_statement",
    "bqs_read_reply_statement",
    "phx_echo_request_statement",
    "phx_echo_statement",
    "phx_write_request_statement",
    "phx_read_ts_reply_statement",
    "phx_write_reply_statement",
    "phx_read_reply_statement",
]


# -- BQS --------------------------------------------------------------------


def bqs_write_statement(ts: Timestamp, value_hash: bytes) -> bytes:
    """What the *writer* signs: binds the value hash to the timestamp."""
    return canonical_encode(("BQS-WRITE", ts.to_wire(), value_hash))


def bqs_read_ts_reply_statement(ts: Timestamp, nonce: bytes) -> bytes:
    """Replica's signed phase-1 reply body, bound to the nonce."""
    return canonical_encode(("BQS-READ-TS-REPLY", ts.to_wire(), nonce))


def bqs_write_reply_statement(ts: Timestamp) -> bytes:
    """Replica's signed write acknowledgement body."""
    return canonical_encode(("BQS-WRITE-REPLY", ts.to_wire()))


def bqs_read_reply_statement(
    value: Any, ts: Timestamp, nonce: bytes
) -> bytes:
    """Replica's signed read-reply envelope (value + timestamp + nonce)."""
    return canonical_encode(("BQS-READ-REPLY", value, ts.to_wire(), nonce))


# -- Phalanx -------------------------------------------------------------------


def phx_echo_request_statement(ts: Timestamp, value_hash: bytes) -> bytes:
    """What the *client* signs when asking for an echo."""
    return canonical_encode(("PHX-ECHO", ts.to_wire(), value_hash))


def phx_echo_statement(ts: Timestamp, value_hash: bytes) -> bytes:
    """What replicas sign when echoing; a quorum forms the write proof."""
    return canonical_encode(("PHX-ECHO-REPLY", ts.to_wire(), value_hash))


def phx_write_request_statement(
    value: Any, ts: Timestamp
) -> bytes:
    """What the client signs on the write proper."""
    return canonical_encode(("PHX-WRITE", value, ts.to_wire()))


def phx_read_ts_reply_statement(ts: Timestamp, nonce: bytes) -> bytes:
    """Replica's signed timestamp reply, bound to the nonce."""
    return canonical_encode(("PHX-READ-TS-REPLY", ts.to_wire(), nonce))


def phx_write_reply_statement(ts: Timestamp) -> bytes:
    """Replica's signed write acknowledgement body."""
    return canonical_encode(("PHX-WRITE-REPLY", ts.to_wire()))


def phx_read_reply_statement(
    value: Any, ts: Timestamp, nonce: bytes
) -> bytes:
    """Replica's signed read reply (no transferable proof — masking read)."""
    return canonical_encode(("PHX-READ-REPLY", value, ts.to_wire(), nonce))
