"""The frame envelope both ends of a TCP connection speak.

Framing is the length-prefixed canonical codec; each frame carries an
envelope ``{"src": <node-id>, "msg": <message wire dict>}`` plus, on
replies, the demultiplexing tag ``"dst": <request src>`` that lets one
connection serve many logical clients (``repro.net.mux``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import Message, message_from_wire, message_wire_bytes
from repro.encoding import canonical_decode, canonical_encode, encode_frame
from repro.errors import EncodingError

__all__ = ["encode_envelope", "decode_envelope"]


def encode_envelope(
    src: str, message: Message, dst: Optional[str] = None
) -> bytes:
    """One frame carrying ``message`` from ``src`` (``dst`` tags a reply)."""
    # The canonical format is self-delimiting, so the envelope dict
    # ``{"msg": ..., "src": ...}`` (keys in canonical sorted order) can be
    # assembled around the message's cached bytes without re-encoding it.
    # ``dst`` is the demultiplexing tag: replica replies name the logical
    # client they answer.  Key order stays canonical ("dst" < "msg" <
    # "src"), and the dst-less envelope is byte-identical to the
    # historical two-key form.
    body = (
        b"u3:msg"
        + message_wire_bytes(message)
        + b"u3:src"
        + canonical_encode(src)
        + b"e"
    )
    if dst is None:
        return encode_frame(b"d" + body)
    return encode_frame(b"du3:dst" + canonical_encode(dst) + body)


def decode_envelope(payload: bytes) -> tuple[str, Message, Optional[str]]:
    """``(src, message, dst)``; ``dst`` is ``None`` on an untagged frame."""
    wire = canonical_decode(payload)
    if not isinstance(wire, dict) or "src" not in wire or "msg" not in wire:
        raise EncodingError(f"malformed envelope: {wire!r}")
    dst = wire.get("dst")
    if dst is not None and not isinstance(dst, str):
        raise EncodingError(f"malformed envelope dst: {wire!r}")
    return wire["src"], message_from_wire(wire["msg"]), dst
