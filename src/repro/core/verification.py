"""Verification pipeline shared by every protocol role.

BFT-BC's dominant cost is signature and certificate checking: every PREPARE
and WRITE carries a quorum certificate of 2f+1 signatures, and the paper
(§3, §6) counts these verifications as the protocol's main overhead.

:class:`Verifier` wraps a :class:`~repro.crypto.signatures.SignatureScheme`:
:meth:`Verifier.verify` is a counted ``scheme.verify``, so each role pays for
each signature it checks, and :meth:`Verifier.validate_certificate` keeps a
bounded LRU memo of the certificates it has proven valid, keyed by the
certificate's class and a digest of its canonical bytes (``cert.encoded``,
stashed once per instance).  A certificate seen again (a retransmission, a
read's write-back, a phase-1 reply carrying the certificate this replica
already accepted) is answered in O(1) instead of O(|Q|) backend calls.

The memo cannot weaken the §4 safety argument: it holds only positive
verdicts, a valid certificate's verdict is a pure function of its bytes and
its signers' key material, and neither changes once a signer is registered
(:class:`~repro.crypto.keys.KeyRegistry` derives keys deterministically and
never changes a secret after registration; revocation deliberately does not
affect verification, per §4.1.1's lurking-write semantics).  An invalid
certificate is never memoized, because registering a signer later can make
it valid.

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

#: Certificate-memo capacity; the least recently used verdict goes beyond it.
MAX_CERTIFICATES = 2048


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
    """Counters for the verification pipeline.

    Attributes:
        signature_checks: signature verifications, each one call of the
            wrapped scheme's ``verify`` (including those made while
            validating certificates).
        certificate_checks: certificate validations requested.
        certificate_hits: certificate validations answered from the memo.
        certificate_evictions: certificate-memo entries dropped by capacity.
    """

    signature_checks: int = 0
    certificate_checks: int = 0
    certificate_hits: int = 0
    certificate_evictions: int = 0

    # Kept readable for external counter readers (perfbench): every check
    # is verified alone and none is memoized, so a verification pass is one
    # backend verify, no batch pass ever runs and no signature check hits.
    batch_calls = 0
    batched_signatures = 0
    signature_hits = 0

    @property
    def verify_calls(self) -> int:
        return self.signature_checks

    @property
    def certificate_hit_rate(self) -> float:
        """Fraction of certificate checks served from the memo (0 when idle)."""
        if not self.certificate_checks:
            return 0.0
        return self.certificate_hits / self.certificate_checks

    def reset(self) -> None:
        """Zero every counter (used between benchmark runs)."""
        self.signature_checks = 0
        self.certificate_checks = 0
        self.certificate_hits = 0
        self.certificate_evictions = 0


class Verifier:
    """Counted signature checks and a memo of valid certificates.

    All protocol code verifies through one of these instead of calling the
    scheme directly; signing is unaffected.  The verifier mirrors the
    scheme's ``verify(signature, bytes)`` interface so certificate
    ``validate`` implementations accept either (duck typing), which counts
    a certificate's per-signature checks on a certificate-level miss.

    Args:
        scheme: the wrapped signature backend.
        quorums: quorum system certificates are validated against.
    """

    def __init__(self, scheme: SignatureScheme, quorums: Any) -> None:
        self.scheme = scheme
        self.quorums = quorums
        self.stats = VerificationStats()
        self._certificate_memo: OrderedDict[tuple[type, bytes], bool] = (
            OrderedDict()
        )

    # -- signature layer ---------------------------------------------------

    def verify(self, signature: Signature, message: bytes) -> bool:
        """Counted ``scheme.verify`` over raw bytes."""
        self.stats.signature_checks += 1
        return self.scheme.verify(signature, message)

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
        self._certificate_memo[key] = True
        while len(self._certificate_memo) > MAX_CERTIFICATES:
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
