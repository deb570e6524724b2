"""Collision-resistant hashing over canonical encodings.

The paper assumes a collision-resistant hash function ``h`` (§2).  We use
SHA-256.  Protocol code always hashes *values* (arbitrary encodable Python
objects) through their canonical encoding, so two logically equal values hash
identically on every node.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.encoding import canonical_encode

__all__ = ["DIGEST_SIZE", "digest", "digest_bytes", "hash_value"]

#: Size in bytes of every digest produced by this module.
DIGEST_SIZE = 32


def digest_bytes(data: bytes) -> bytes:
    """SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).digest()


def digest(*parts: bytes) -> bytes:
    """SHA-256 digest of the concatenation of length-delimited parts.

    Length delimiting prevents ambiguity between e.g. ``(b"ab", b"c")`` and
    ``(b"a", b"bc")``.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def hash_value(value: Any) -> bytes:
    """The paper's ``h(val)``: digest of the canonical encoding of ``value``."""
    return digest_bytes(canonical_encode(value))
