"""Deterministic canonical encoding and wire framing.

The protocol signs *statements* (e.g. ``PREPARE-REPLY`` bodies) and those
signatures must verify at nodes other than the one that produced them, so the
byte representation of a statement has to be canonical: the same logical
value always encodes to the same bytes, on every node.

:mod:`repro.encoding.canonical` provides that canonical encoding (a
bencoding-style, self-delimiting, fully round-trippable format),
:mod:`repro.encoding.codec` provides length-prefixed framing for stream
transports, and :mod:`repro.encoding.interning` memoizes the encodings of
repeatedly-encoded values (protocol statements, hashed values) so sign,
verify, and hash all share one serialisation per distinct value.
"""

from repro.encoding.canonical import (
    EncodeStats,
    canonical_decode,
    canonical_encode,
    encode_stats,
)
from repro.encoding.codec import FrameDecoder, decode_frame, encode_frame
from repro.encoding.interning import (
    InternStats,
    intern_encode,
    intern_stats,
    reset_interning,
)

__all__ = [
    "canonical_encode",
    "canonical_decode",
    "EncodeStats",
    "encode_stats",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "InternStats",
    "intern_encode",
    "intern_stats",
    "reset_interning",
]
