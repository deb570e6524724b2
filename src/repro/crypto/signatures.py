"""Signature schemes: the paper's ``<m>_sigma_n`` authentication.

Two interchangeable backends implement :class:`SignatureScheme`:

* :class:`HmacSignatureScheme` — the default.  Signing and verification are
  HMAC-SHA256 keyed by the signer's registry secret.  Verification consults
  the :class:`~repro.crypto.keys.KeyRegistry`, which models the PKI: within
  the simulation, unforgeability holds because adversarial code can only
  obtain signatures through :meth:`SignatureScheme.sign` with credentials it
  actually holds.
* :class:`RsaSignatureScheme` — textbook RSA-FDH.  Verification uses public
  key material only, exercising a genuine public-key verify path at higher
  cost.  Useful for the signature-cost experiments (E4).

Schemes sign and verify bytes, never a value to be encoded: a statement
reaches them already encoded by its builder.  Both schemes count sign/verify
operations (:class:`SchemeStats`) so benchmarks can report authentication
costs per protocol operation, matching §3.3.2's accounting of which phases
need public-key signatures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
import hmac
from typing import TYPE_CHECKING, Any, Optional

from repro.crypto.keys import KeyRegistry
from repro.errors import CryptoError

if TYPE_CHECKING:
    from repro.crypto.rsa import RsaPrivateKey

__all__ = [
    "Signature",
    "SchemeStats",
    "SignatureScheme",
    "HmacSignatureScheme",
    "RsaSignatureScheme",
]


@dataclass(frozen=True)
class Signature:
    """A signature ``value`` attributed to ``signer``.

    Signatures appear inside certificates and are themselves encoded into
    messages, so they provide a wire representation.
    """

    signer: str
    value: bytes

    def to_wire(self) -> tuple[str, bytes]:
        return (self.signer, self.value)

    @classmethod
    def from_wire(cls, wire: Any) -> "Signature":
        if (
            not isinstance(wire, tuple)
            or len(wire) != 2
            or not isinstance(wire[0], str)
            or not isinstance(wire[1], bytes)
        ):
            raise CryptoError(f"malformed wire signature: {wire!r}")
        return cls(signer=wire[0], value=wire[1])


@dataclass
class SchemeStats:
    """Counters for authentication operations, reset-able per experiment."""

    signs: int = 0
    verifies: int = 0
    sign_failures: int = 0
    verify_failures: int = 0

    def reset(self) -> None:
        self.signs = 0
        self.verifies = 0
        self.sign_failures = 0
        self.verify_failures = 0


class SignatureScheme(ABC):
    """Common interface for signing statement bytes.

    Both methods take bytes only: every protocol statement is encoded once,
    by its builder in :mod:`repro.core.statements` (or the baselines' and
    shard layer's own), before it reaches a scheme.
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self.registry = registry
        self.stats = SchemeStats()

    def sign(self, node_id: str, message: bytes) -> Signature:
        """Sign ``message`` as ``node_id``.

        Raises:
            KeyRevokedError: if ``node_id``'s key has been revoked — a
                stopped client can no longer produce new signatures.
            UnknownSignerError: if ``node_id`` has no registered key.
        """
        try:
            self.registry.check_may_sign(node_id)
        except CryptoError:
            self.stats.sign_failures += 1
            raise
        self.stats.signs += 1
        return Signature(signer=node_id, value=self._sign(node_id, message))

    def verify(self, signature: Signature, message: bytes) -> bool:
        """Check ``signature`` over ``message``.

        Verification deliberately ignores revocation: a revoked (stopped)
        client's old signatures still verify, which is what allows replayed
        lurking writes (§4.1.1).
        """
        self.stats.verifies += 1
        if not self.registry.is_registered(signature.signer):
            self.stats.verify_failures += 1
            return False
        ok = self._verify(signature, message)
        if not ok:
            self.stats.verify_failures += 1
        return ok

    @abstractmethod
    def _sign(self, node_id: str, message: bytes) -> bytes:
        """Backend-specific signing primitive."""

    @abstractmethod
    def _verify(self, signature: Signature, message: bytes) -> bool:
        """Backend-specific verification primitive."""


class HmacSignatureScheme(SignatureScheme):
    """Fast PKI simulation via HMAC-SHA256 keyed by registry secrets."""

    def _sign(self, node_id: str, message: bytes) -> bytes:
        secret = self.registry.secret_for(node_id)
        return hmac.digest(secret, message, "sha256")

    def _verify(self, signature: Signature, message: bytes) -> bool:
        secret = self.registry.secret_for(signature.signer)
        expected = hmac.digest(secret, message, "sha256")
        return hmac.compare_digest(expected, signature.value)


class RsaSignatureScheme(SignatureScheme):
    """Textbook RSA-FDH signatures; verification is public-key only.

    Keypairs are derived deterministically from the registry secret, so the
    per-node cache is a bounded LRU: an evicted keypair regenerates to the
    identical key material on next use (eviction is invisible except in
    time), keeping resident key state O(active signers).
    """

    def __init__(
        self,
        registry: KeyRegistry,
        bits: int = 512,
        *,
        max_cached_keys: Optional[int] = 1024,
    ) -> None:
        # The RSA arithmetic is loaded only by a deployment that signs with it.
        from repro.crypto import rsa

        super().__init__(registry)
        self._rsa = rsa
        self._bits = bits
        self._private: "OrderedDict[str, RsaPrivateKey]" = OrderedDict()
        self._max_cached_keys = max_cached_keys
        self.keypair_evictions = 0

    def _keypair(self, node_id: str) -> RsaPrivateKey:
        key = self._private.get(node_id)
        if key is None:
            seed = self.registry.secret_for(node_id)
            key = self._rsa.generate_rsa_keypair(seed, bits=self._bits)
            self._private[node_id] = key
            if self._max_cached_keys is not None:
                while len(self._private) > self._max_cached_keys:
                    self._private.popitem(last=False)
                    self.keypair_evictions += 1
        else:
            self._private.move_to_end(node_id)
        return key

    def _sign(self, node_id: str, message: bytes) -> bytes:
        return self._rsa.rsa_sign(self._keypair(node_id), message)

    def _verify(self, signature: Signature, message: bytes) -> bool:
        public = self._keypair(signature.signer).public
        return self._rsa.rsa_verify(public, message, signature.value)
