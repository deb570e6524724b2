"""Deterministic canonical encoding and wire framing.

The protocol signs *statements* (e.g. ``PREPARE-REPLY`` bodies) and those
signatures must verify at nodes other than the one that produced them, so the
byte representation of a statement has to be canonical: the same logical
value always encodes to the same bytes, on every node.

:mod:`repro.encoding.canonical` provides that canonical encoding (a
bencoding-style, self-delimiting, fully round-trippable format),
:mod:`repro.encoding.codec` provides length-prefixed framing for stream
transports.  :func:`encode_once` stashes an immutable object's canonical
bytes on the instance, and :class:`Encoded` splices such bytes into a
larger value, so a certificate is encoded once however many statements and
messages embed it.  :mod:`repro.encoding.interning` is a counted
pass-through kept for the benchmark's trace target.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "canonical_encode": "repro.encoding.canonical",
    "canonical_decode": "repro.encoding.canonical",
    "Encoded": "repro.encoding.canonical",
    "encode_once": "repro.encoding.canonical",
    "encode_dict": "repro.encoding.canonical",
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
