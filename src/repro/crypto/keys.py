"""Key management for the simulated public-key infrastructure.

The paper assumes every node holds a private key and that any node can verify
any other node's signatures (§2).  :class:`KeyRegistry` models the PKI: it
derives per-node key material deterministically from a master seed, tracks
revocations, and hands out :class:`PrivateCredential` objects that are the
*only* way to produce signatures.

Secrets are pure functions of ``(master_seed, node_id)``, so the registry
never has to *store* them: derivation is lazy and results sit in a bounded
LRU.  An evicted secret is simply re-derived on next use.  Membership likewise
does not require a million-entry set — identities can be admitted wholesale
by :meth:`open_namespace` prefix, keeping resident state O(active clients)
instead of O(ever-seen clients).

Revocation models the paper's ``stop`` event (§4.1.1): once an administrator
revokes a client's key, no *new* signatures can be produced on its behalf,
but messages signed before the revocation still verify — which is exactly
what lets a colluder replay a stopped client's lurking writes.  Revocations
are the one thing kept *exact* (a compact set — stopped clients are rare),
with a monotone :attr:`KeyRegistry.revocation_epoch` watermark so caches
layered above the registry can cheaply detect that the revocation set moved.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import KeyRevokedError, UnknownSignerError

__all__ = ["PrivateCredential", "KeyRegistryStats", "KeyRegistry"]

#: Default capacity of the derived-secret LRU.
SECRET_CACHE_CAPACITY = 8192


@dataclass(frozen=True)
class PrivateCredential:
    """A node's private key material.

    Holding one of these is what it means to "know the private key" in the
    paper's model.  Simulated adversaries receive only their own credential.
    """

    node_id: str
    secret: bytes


@dataclass
class KeyRegistryStats:
    """Derivation/eviction counters for the lazy secret cache (E21)."""

    derivations: int = 0
    cache_hits: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.derivations
        return self.cache_hits / total if total else 0.0

    def reset(self) -> None:
        self.derivations = 0
        self.cache_hits = 0
        self.evictions = 0


class KeyRegistry:
    """Deterministic key derivation plus revocation tracking.

    Args:
        master_seed: root entropy; the same seed always produces the same
            per-node keys, keeping simulations reproducible.
        secret_cache: LRU capacity for derived secrets; ``None`` keeps every
            derived secret resident (the pre-budget behaviour, used by the
            differential memory experiments as the unbounded baseline).
    """

    def __init__(
        self,
        master_seed: bytes = b"repro-default-seed",
        *,
        secret_cache: Optional[int] = SECRET_CACHE_CAPACITY,
    ) -> None:
        self.master_seed = master_seed
        self._explicit: set[str] = set()
        self._namespaces: tuple[str, ...] = ()
        self._cache: "OrderedDict[str, bytes]" = OrderedDict()
        self._capacity = secret_cache
        self._revoked: set[str] = set()
        #: Monotone watermark bumped on every revocation; caches above the
        #: registry compare it to detect that the revocation set moved.
        self.revocation_epoch = 0
        self.stats = KeyRegistryStats()

    # -- membership ----------------------------------------------------------

    def open_namespace(self, prefix: str) -> None:
        """Admit every identity whose id starts with ``prefix``.

        This is the O(1)-memory path for large client populations: a load
        harness spinning up 10⁶ writers opens one namespace instead of
        registering a million explicit entries.
        """
        if prefix not in self._namespaces:
            self._namespaces = self._namespaces + (prefix,)

    def register(self, node_id: str) -> PrivateCredential:
        """Admit ``node_id`` (idempotent) and hand back its credential."""
        if not self._in_namespace(node_id) and node_id not in self._explicit:
            self._explicit.add(node_id)
        return PrivateCredential(node_id=node_id, secret=self._derive(node_id))

    def is_registered(self, node_id: str) -> bool:
        return node_id in self._explicit or self._in_namespace(node_id)

    def _in_namespace(self, node_id: str) -> bool:
        return bool(self._namespaces) and node_id.startswith(self._namespaces)

    # -- secrets -------------------------------------------------------------

    def secret_for(self, node_id: str) -> bytes:
        """Return the secret for ``node_id`` (registry-internal use).

        Raises:
            UnknownSignerError: if the node was never registered.
        """
        if node_id not in self._explicit and not self._in_namespace(node_id):
            raise UnknownSignerError(f"no key registered for {node_id!r}")
        return self._derive(node_id)

    def _derive(self, node_id: str) -> bytes:
        secret = self._cache.get(node_id)
        if secret is not None:
            self._cache.move_to_end(node_id)
            self.stats.cache_hits += 1
            return secret
        secret = hashlib.sha256(
            b"node-key|" + self.master_seed + b"|" + node_id.encode("utf-8")
        ).digest()
        self.stats.derivations += 1
        self._cache[node_id] = secret
        if self._capacity is not None:
            while len(self._cache) > self._capacity:
                self._cache.popitem(last=False)
                self.stats.evictions += 1
        return secret

    @property
    def resident_secrets(self) -> int:
        """How many derived secrets are currently cached."""
        return len(self._cache)

    # -- revocation ----------------------------------------------------------

    def revoke(self, node_id: str) -> None:
        """Revoke ``node_id``'s key: no further signing allowed.

        Previously produced signatures continue to verify; see module docs.
        """
        if not self.is_registered(node_id):
            raise UnknownSignerError(f"cannot revoke unknown node {node_id!r}")
        if node_id not in self._revoked:
            self._revoked.add(node_id)
            self.revocation_epoch += 1

    def is_revoked(self, node_id: str) -> bool:
        return node_id in self._revoked

    def check_may_sign(self, node_id: str) -> None:
        """Raise unless ``node_id`` is registered and not revoked."""
        if node_id not in self._explicit and not self._in_namespace(node_id):
            raise UnknownSignerError(f"no key registered for {node_id!r}")
        if node_id in self._revoked:
            raise KeyRevokedError(f"key for {node_id!r} has been revoked")

    # -- views ---------------------------------------------------------------

    @property
    def namespaces(self) -> tuple[str, ...]:
        """Prefixes admitted wholesale via :meth:`open_namespace`."""
        return self._namespaces
