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

from repro._exports import lazy_exports

_EXPORTS = {
    "canonical_encode": "repro.encoding.canonical",
    "canonical_decode": "repro.encoding.canonical",
    "EncodeStats": "repro.encoding.canonical",
    "encode_stats": "repro.encoding.canonical",
    "encode_frame": "repro.encoding.codec",
    "decode_frame": "repro.encoding.codec",
    "FrameDecoder": "repro.encoding.codec",
    "InternStats": "repro.encoding.interning",
    "intern_encode": "repro.encoding.interning",
    "intern_stats": "repro.encoding.interning",
    "reset_interning": "repro.encoding.interning",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
