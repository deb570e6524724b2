"""Nonce generation.

§2: "To avoid replay attacks we tag certain messages with nonces that are
signed in the replies.  We assume that when clients pick nonces they will
not choose a repeated nonce."

:class:`NonceSource` produces nonces that are unique per (node, counter) and
unpredictable to other nodes (derived from the node's secret), satisfying
that assumption deterministically.  Replay protection is the nonce each
reply signs: a client accepts only replies that sign the nonce of its own
request.
"""

from __future__ import annotations

import hashlib

__all__ = ["NonceSource"]


class NonceSource:
    """Deterministic, never-repeating nonce generator for one node."""

    def __init__(self, node_id: str, secret: bytes = b"") -> None:
        self._node_id = node_id
        self._secret = secret
        self._counter = 0

    def next(self) -> bytes:
        """Return a fresh 16-byte nonce."""
        self._counter += 1
        return hashlib.sha256(
            b"nonce|"
            + self._secret
            + b"|"
            + self._node_id.encode("utf-8")
            + b"|"
            + self._counter.to_bytes(8, "big")
        ).digest()[:16]

    @property
    def issued(self) -> int:
        """Number of nonces issued so far."""
        return self._counter

