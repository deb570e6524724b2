"""Point-to-point MAC authenticators.

§3.3.2 observes that only phase-2 and phase-3 replies need public-key
signatures (they become certificate entries shown to third parties); all
other messages can be authenticated with cheaper symmetric MACs over pairwise
session keys.  This module provides that cheaper primitive.

Session keys are derived deterministically from the two endpoints' registry
secrets so that either endpoint can compute the same key without a key
exchange round (a stand-in for an authenticated Diffie-Hellman handshake).
Because derivation is a pure function of the pair, the per-pair row cache is
a bounded LRU: with a million clients the authenticator no longer pins one
row per client ever seen — cold rows are re-derived on demand.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.keys import KeyRegistry

__all__ = ["MacAuthenticatorStats", "MacAuthenticator"]

#: Capacity of the pairwise session-key LRU.
SESSION_CACHE_CAPACITY = 4096


@dataclass
class MacAuthenticatorStats:
    """Session-key cache counters (E21 identity-layer memory accounting)."""

    session_keys_derived: int = 0
    session_key_hits: int = 0
    session_key_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.session_key_hits + self.session_keys_derived
        return self.session_key_hits / total if total else 0.0

    def reset(self) -> None:
        self.session_keys_derived = 0
        self.session_key_hits = 0
        self.session_key_evictions = 0


class MacAuthenticator:
    """Compute and check pairwise MACs between registered nodes.

    Pairwise session keys derive from the registry's per-node secrets and
    are cached in an LRU of :data:`SESSION_CACHE_CAPACITY` pairs; an evicted
    key re-derives to the same bytes on its next use.
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry
        self._session_keys: "OrderedDict[tuple[str, str], bytes]" = OrderedDict()
        self.macs_computed = 0
        self.macs_checked = 0
        self.stats = MacAuthenticatorStats()

    def session_key(self, a: str, b: str) -> bytes:
        """Deterministic symmetric key shared by nodes ``a`` and ``b``."""
        pair = (a, b) if a <= b else (b, a)
        key = self._session_keys.get(pair)
        if key is not None:
            self._session_keys.move_to_end(pair)
            self.stats.session_key_hits += 1
            return key
        material = (
            b"session|"
            + self._registry.secret_for(pair[0])
            + b"|"
            + self._registry.secret_for(pair[1])
        )
        key = hashlib.sha256(material).digest()
        self.stats.session_keys_derived += 1
        self._session_keys[pair] = key
        while len(self._session_keys) > SESSION_CACHE_CAPACITY:
            self._session_keys.popitem(last=False)
            self.stats.session_key_evictions += 1
        return key

    @property
    def resident_sessions(self) -> int:
        """How many pairwise session keys are currently cached."""
        return len(self._session_keys)

    def mac(self, sender: str, receiver: str, message: bytes) -> bytes:
        """MAC ``message`` under the (sender, receiver) session key."""
        self.macs_computed += 1
        return hmac.digest(self.session_key(sender, receiver), message, "sha256")

    def check(self, sender: str, receiver: str, message: bytes, tag: bytes) -> bool:
        """Verify a MAC produced by :meth:`mac`."""
        self.macs_checked += 1
        expected = hmac.digest(self.session_key(sender, receiver), message, "sha256")
        return hmac.compare_digest(expected, tag)
