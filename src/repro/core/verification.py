"""Memoizing verification pipeline shared by every protocol role.

BFT-BC's dominant cost is signature and certificate checking: every PREPARE
and WRITE carries a quorum certificate of 2f+1 signatures, and the paper
(§3, §6) counts these verifications as the protocol's main overhead.  The
same certificate is routinely verified many times — on retransmission, during
a read's write-back, when validating phase-1 replies, and once per role when
a client and a replica share a process in the simulator.

:class:`Verifier` wraps a :class:`~repro.crypto.signatures.SignatureScheme`
with two bounded LRU memos:

* a **signature memo** keyed by ``(statement bytes, signer, signature)``, and
* a **certificate memo** keyed by the certificate's class and a digest of
  its canonical bytes (``cert.encoded``, stashed once per instance),

so a certificate seen twice verifies in O(1) instead of O(|Q|) backend calls.

Caching cannot weaken the §4 safety argument: a verdict is a pure function of
the signed bytes, the signer's key material, and the signature value — all of
which are part of the memo key or immutable once the signer is registered
(:class:`~repro.crypto.keys.KeyRegistry` derives keys deterministically and
never changes a secret after registration; revocation deliberately does not
affect verification, per §4.1.1's lurking-write semantics).  The only mutable
input is *whether* the signer is registered, and registration only grows —
so the memo declines to cache verdicts for unregistered signers, the one case
where a later registration could flip the answer.

This module sits between ``repro.crypto`` and the rest of ``repro.core`` in
the layering (``crypto`` → ``core.verification`` → ``core.*`` → ``net``/
``sim``); it must not import other ``repro.core`` modules.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.crypto.hashing import digest_bytes
from repro.crypto.signatures import Signature, SignatureScheme
from repro.errors import CertificateError

__all__ = ["VerificationStats", "Verifier"]


@runtime_checkable
class _Certificate(Protocol):
    """Structural type for certificates (avoids importing ``core.certificates``)."""

    @property
    def encoded(self) -> bytes:  # pragma: no cover - protocol declaration
        ...

    def validate(self, scheme: Any, quorums: Any) -> None:  # pragma: no cover
        ...


@dataclass
class VerificationStats:
    """Hit/miss counters for the verification pipeline.

    Attributes:
        signature_checks: calls answered at the signature layer (cached or
            not), including those made while validating certificates.
        signature_hits: signature checks answered from the memo.
        backend_verifies: calls that reached the wrapped scheme's ``verify``.
        certificate_checks: certificate validations requested.
        certificate_hits: certificate validations answered from the memo.
        signature_evictions: signature-memo entries dropped by the global
            LRU capacity.
        signer_evictions: signature-memo entries dropped because one signer
            exceeded its per-identity budget (E21 memory accounting).
        certificate_evictions: certificate-memo entries dropped by capacity.
    """

    signature_checks: int = 0
    signature_hits: int = 0
    backend_verifies: int = 0
    certificate_checks: int = 0
    certificate_hits: int = 0
    signature_evictions: int = 0
    signer_evictions: int = 0
    certificate_evictions: int = 0

    # Kept readable for external counter readers (perfbench): every check
    # is verified alone, so a verification pass is one backend verify and
    # no batch pass ever runs.
    batch_calls = 0
    batched_signatures = 0

    @property
    def verify_calls(self) -> int:
        return self.backend_verifies

    @property
    def signature_hit_rate(self) -> float:
        """Fraction of signature checks served from the memo (0 when idle)."""
        if not self.signature_checks:
            return 0.0
        return self.signature_hits / self.signature_checks

    @property
    def certificate_hit_rate(self) -> float:
        """Fraction of certificate checks served from the memo (0 when idle)."""
        if not self.certificate_checks:
            return 0.0
        return self.certificate_hits / self.certificate_checks

    def reset(self) -> None:
        """Zero every counter (used between benchmark runs)."""
        self.signature_checks = 0
        self.signature_hits = 0
        self.backend_verifies = 0
        self.certificate_checks = 0
        self.certificate_hits = 0
        self.signature_evictions = 0
        self.signer_evictions = 0
        self.certificate_evictions = 0


class Verifier:
    """Bounded-LRU memoizing front-end over a signature scheme.

    All protocol code verifies through one of these instead of calling the
    scheme directly; signing is unaffected.  The verifier deliberately
    mirrors the scheme's ``verify(signature, bytes)`` interface so
    certificate ``validate`` implementations accept either (duck typing),
    which routes a certificate's per-signature loop through the signature
    memo on a certificate-level miss.

    Args:
        scheme: the wrapped signature backend.
        quorums: quorum system certificates are validated against.
        max_signatures: signature-memo capacity (LRU eviction beyond it).
        max_certificates: certificate-memo capacity.
        max_signatures_per_signer: per-identity budget within the signature
            memo; one chatty (or Byzantine) client cannot monopolise the
            memo by churning distinct statements.  ``None`` disables the
            per-signer budget, leaving only the global capacity.
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        quorums: Any,
        *,
        max_signatures: int = 8192,
        max_certificates: int = 2048,
        max_signatures_per_signer: "int | None" = 512,
    ) -> None:
        self.scheme = scheme
        self.quorums = quorums
        self.stats = VerificationStats()
        self._max_signatures = max_signatures
        self._max_certificates = max_certificates
        self._max_per_signer = max_signatures_per_signer
        self._signature_memo: OrderedDict[tuple[bytes, str, bytes], bool] = (
            OrderedDict()
        )
        self._certificate_memo: OrderedDict[tuple[type, bytes], bool] = (
            OrderedDict()
        )
        # Per-signer index into the signature memo: signer -> its memo keys
        # in insertion order.  Lets the per-identity budget evict that
        # signer's oldest entry in O(1) instead of scanning the whole memo.
        self._by_signer: dict[str, "OrderedDict[tuple[bytes, str, bytes], None]"] = {}

    # -- signature layer ---------------------------------------------------

    def verify(self, signature: Signature, message: bytes) -> bool:
        """Memoized equivalent of ``scheme.verify`` over raw bytes."""
        self.stats.signature_checks += 1
        key = (message, signature.signer, signature.value)
        cached = self._signature_memo.get(key)
        if cached is not None:
            self._signature_memo.move_to_end(key)
            self.stats.signature_hits += 1
            return cached
        self.stats.backend_verifies += 1
        verdict = self.scheme.verify(signature, message)
        # A verdict for an unregistered signer is the one non-pure case:
        # registering the signer later would flip False to the real answer,
        # so never memoize it.
        if self.scheme.registry.is_registered(signature.signer):
            self._remember_signature(key, verdict)
        return verdict

    # -- certificate layer -------------------------------------------------

    def validate_certificate(self, cert: _Certificate) -> None:
        """Memoized certificate validation.

        Raises:
            CertificateError: exactly when ``cert.validate`` would — the memo
                only short-circuits certificates previously proven valid.
        """
        self.stats.certificate_checks += 1
        key = (cert.__class__, digest_bytes(cert.encoded))
        if self._certificate_memo.get(key):
            self._certificate_memo.move_to_end(key)
            self.stats.certificate_hits += 1
            return
        cert.validate(self, self.quorums)
        # Only positive verdicts are cached: an invalid certificate can
        # become valid once its signers register, and revalidating garbage
        # is cheap because its signature checks still hit the memo.
        self._certificate_memo[key] = True
        self._certificate_memo.move_to_end(key)
        while len(self._certificate_memo) > self._max_certificates:
            self._certificate_memo.popitem(last=False)
            self.stats.certificate_evictions += 1

    def certificate_valid(self, cert: _Certificate) -> bool:
        """Boolean form of :meth:`validate_certificate`."""
        try:
            self.validate_certificate(cert)
        except CertificateError:
            return False
        return True

    def rebind_quorums(self, quorums: Any) -> None:
        """Point certificate validation at a new quorum system.

        Called when a reconfiguration changes group membership.  Verdicts
        memoized under the previous membership stay memoized: only positive
        verdicts are ever cached, they were legitimately earned then, and a
        reconfigured quorum system keeps prior members acceptable as
        ``extra_signers`` precisely so those certificates remain valid.
        """
        self.quorums = quorums

    # -- internals ---------------------------------------------------------

    def _remember_signature(
        self, key: tuple[bytes, str, bytes], verdict: bool
    ) -> None:
        memo = self._signature_memo
        memo[key] = verdict
        memo.move_to_end(key)
        signer = key[1]
        per_signer = self._by_signer.setdefault(signer, OrderedDict())
        per_signer[key] = None
        per_signer.move_to_end(key)
        if self._max_per_signer is not None:
            while len(per_signer) > self._max_per_signer:
                old_key, _ = per_signer.popitem(last=False)
                memo.pop(old_key, None)
                self.stats.signer_evictions += 1
        while len(memo) > self._max_signatures:
            old_key, _ = memo.popitem(last=False)
            self.stats.signature_evictions += 1
            index = self._by_signer.get(old_key[1])
            if index is not None:
                index.pop(old_key, None)
                if not index:
                    del self._by_signer[old_key[1]]

    @property
    def resident_signature_entries(self) -> int:
        """How many signature verdicts are currently memoized."""
        return len(self._signature_memo)

    def clear(self) -> None:
        """Drop both memos (counters are kept; use ``stats.reset()`` too)."""
        self._signature_memo.clear()
        self._certificate_memo.clear()
        self._by_signer.clear()
