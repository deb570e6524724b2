"""Prepare and write certificates (§3.2).

A certificate is "a collection of 2f + 1 authenticated messages from
different replicas that vouch for some fact".  Certificates are the paper's
central mechanism: they let a client prove to replicas (and to *other*
clients, via phase-1 replies) that a fact holds without those replicas having
to hear it from a quorum directly.

* A **prepare certificate** for ``(ts, h)`` is a quorum of
  ``<PREPARE-REPLY, ts, h>_sigma_r`` statements: it proves the write of a
  value with hash ``h`` at timestamp ``ts`` was approved.
* A **write certificate** for ``ts`` is a quorum of
  ``<WRITE-REPLY, ts>_sigma_r`` statements: it proves a write with
  timestamp ``ts`` completed at a quorum.

The genesis prepare certificate bootstraps the system: every replica starts
with ``data = None`` at the zero timestamp, and validators accept the (empty)
genesis certificate for exactly that state and no other.

The fast path (``repro.core.fast_replica``) extends both certificate kinds
with alternative **evidence**:

* ``evidence="proof"`` — the signature-free form: a
  :class:`~repro.crypto.commitments.ProofOfWriting` (commit/reveal plus a
  quorum of MAC rows).  MAC rows are only checkable by the replicas they
  address, so :meth:`PrepareCertificate.validate` *refuses* proof evidence;
  replicas validate their own column through a dedicated hook instead, and
  proof certificates never convince third parties directly.
* ``evidence="vouch"`` — the transferable upgrade: ``f+1`` replica
  signatures over ``<FAST-VOUCH, ts, h>``, each vouching that the signer
  installed that fast write after checking its own proof column.  At least
  one signer is correct, so a vouch certificate is as convincing as a
  quorum one — and it *is* third-party verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.quorum import QuorumSystem
from repro.core.statements import (
    fast_vouch_statement,
    prepare_reply_statement,
    write_reply_statement,
)
from repro.core.timestamp import ZERO_TS, Timestamp
from repro.crypto.commitments import ProofOfWriting
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature, SignatureScheme
from repro.encoding import Encoded, canonical_encode, encode_once
from repro.errors import CertificateError

__all__ = [
    "PrepareCertificate",
    "WriteCertificate",
    "GENESIS_VALUE",
    "genesis_prepare_certificate",
]

#: The value every replica holds before the first write.
GENESIS_VALUE = None


def _encode_wire(cert: Any) -> bytes:
    return canonical_encode(cert.to_wire())


def _encode_prepare(cert: "PrepareCertificate") -> bytes:
    """Proof evidence splices the proof's stashed bytes: replicas wrapping
    one shared proof in certificates of their own encode its rows once."""
    if cert.evidence != "proof" or cert.proof is None:
        return _encode_wire(cert)
    return canonical_encode(
        ("proof", cert.ts.to_wire(), cert.value_hash, Encoded(cert.proof.encoded))
    )


def _signatures_from_wire(wire: Any) -> tuple[Signature, ...]:
    if not isinstance(wire, tuple):
        raise CertificateError(f"malformed signature list: {wire!r}")
    return tuple(Signature.from_wire(item) for item in wire)


@dataclass(frozen=True)
class PrepareCertificate:
    """Evidence that the write of ``(ts, h)`` was approved.

    ``evidence`` selects the form: ``"quorum"`` (a quorum of signed
    ``PREPARE-REPLY`` statements — the paper's certificate), ``"vouch"``
    (``f+1`` signed fast vouches), or ``"proof"`` (a signature-free
    :class:`~repro.crypto.commitments.ProofOfWriting`, checkable only by
    the replicas its MAC rows address).
    """

    ts: Timestamp
    value_hash: bytes
    signatures: tuple[Signature, ...]
    evidence: str = "quorum"
    proof: Optional[ProofOfWriting] = field(default=None)

    @property
    def h(self) -> bytes:
        """The paper's ``c.h`` accessor."""
        return self.value_hash

    @property
    def is_genesis(self) -> bool:
        return (
            self.ts == ZERO_TS
            and not self.signatures
            and self.evidence == "quorum"
        )

    def signers(self) -> frozenset[str]:
        """The distinct replica identities that signed this certificate."""
        return frozenset(sig.signer for sig in self.signatures)

    def to_wire(self) -> tuple[Any, ...]:
        """Canonical wire representation (nested in messages).

        Quorum evidence keeps the original 3-tuple so pre-fast-path wire
        artifacts still parse; the other forms are tagged 4-tuples.
        """
        if self.evidence == "quorum":
            return (
                self.ts.to_wire(),
                self.value_hash,
                tuple(sig.to_wire() for sig in self.signatures),
            )
        if self.evidence == "vouch":
            return (
                "vouch",
                self.ts.to_wire(),
                self.value_hash,
                tuple(sig.to_wire() for sig in self.signatures),
            )
        assert self.proof is not None
        return ("proof", self.ts.to_wire(), self.value_hash, self.proof.to_wire())

    @property
    def encoded(self) -> bytes:
        """``canonical_encode(self.to_wire())``, computed once per instance.

        Every statement and message that carries this certificate splices
        these bytes instead of encoding the certificate again.
        """
        return encode_once(self, _encode_prepare)

    @classmethod
    def from_wire(cls, wire: Any) -> "PrepareCertificate":
        """Parse the wire form; raises CertificateError when malformed."""
        if isinstance(wire, tuple) and len(wire) == 4:
            tag, ts_wire, value_hash, payload = wire
            if not isinstance(value_hash, bytes):
                raise CertificateError("prepare certificate hash is not bytes")
            if tag == "vouch":
                return cls(
                    ts=Timestamp.from_wire(ts_wire),
                    value_hash=value_hash,
                    signatures=_signatures_from_wire(payload),
                    evidence="vouch",
                )
            if tag == "proof":
                return cls(
                    ts=Timestamp.from_wire(ts_wire),
                    value_hash=value_hash,
                    signatures=(),
                    evidence="proof",
                    proof=ProofOfWriting.from_wire(payload),
                )
            raise CertificateError(f"unknown certificate evidence tag {tag!r}")
        if not isinstance(wire, tuple) or len(wire) != 3:
            raise CertificateError(f"malformed prepare certificate: {wire!r}")
        ts_wire, value_hash, sigs_wire = wire
        if not isinstance(value_hash, bytes):
            raise CertificateError("prepare certificate hash is not bytes")
        return cls(
            ts=Timestamp.from_wire(ts_wire),
            value_hash=value_hash,
            signatures=_signatures_from_wire(sigs_wire),
        )

    def validate(self, scheme: SignatureScheme, quorums: QuorumSystem) -> None:
        """Check well-formedness and all signatures.

        ``scheme`` may be any object exposing ``verify(signature, bytes)`` —
        protocol code passes its :class:`~repro.core.verification.Verifier`
        so per-signature checks are counted.

        Raises:
            CertificateError: if the certificate does not contain a quorum of
                valid, distinct replica signatures over the same statement
                (or is a non-genuine genesis certificate).  Proof evidence
                always raises here — it is never third-party verifiable;
                only the fast replica's own-column hook can accept it.
        """
        if self.evidence == "proof":
            raise CertificateError(
                "proof-evidence certificate is not third-party verifiable"
            )
        if self.evidence == "vouch":
            self._validate_vouch(scheme, quorums)
            return
        if self.is_genesis:
            if self.value_hash != hash_value(GENESIS_VALUE):
                raise CertificateError("genesis certificate with wrong value hash")
            return
        if self.ts == ZERO_TS:
            raise CertificateError("non-genesis certificate with zero timestamp")
        signers = self.signers()
        if len(signers) != len(self.signatures):
            raise CertificateError("duplicate signer in prepare certificate")
        if not quorums.is_quorum(signers):
            raise CertificateError(
                f"prepare certificate signers {sorted(signers)} do not form a quorum"
            )
        statement = prepare_reply_statement(self.ts, self.value_hash)
        for sig in self.signatures:
            if not scheme.verify(sig, statement):
                raise CertificateError(
                    f"invalid prepare-certificate signature from {sig.signer}"
                )

    def _validate_vouch(
        self, scheme: SignatureScheme, quorums: QuorumSystem
    ) -> None:
        """``f+1`` distinct replica signatures over ``<FAST-VOUCH, ts, h>``.

        One of any ``f+1`` replicas is correct, and a correct replica only
        vouches for fast writes it fully validated and installed — so the
        threshold is ``f+1``, not a quorum.
        """
        if self.ts == ZERO_TS:
            raise CertificateError("vouch certificate with zero timestamp")
        signers = self.signers()
        if len(signers) != len(self.signatures):
            raise CertificateError("duplicate signer in vouch certificate")
        replicas = set(quorums.replica_ids)
        if not signers <= replicas:
            raise CertificateError("vouch certificate signer is not a replica")
        if len(signers) < quorums.f + 1:
            raise CertificateError(
                f"vouch certificate has {len(signers)} signers; needs f+1"
            )
        statement = fast_vouch_statement(self.ts, self.value_hash)
        for sig in self.signatures:
            if not scheme.verify(sig, statement):
                raise CertificateError(
                    f"invalid vouch signature from {sig.signer}"
                )

    def is_valid(self, scheme: SignatureScheme, quorums: QuorumSystem) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(scheme, quorums)
        except CertificateError:
            return False
        return True


@dataclass(frozen=True)
class WriteCertificate:
    """A quorum of ``WRITE-REPLY`` statements for one timestamp.

    With ``evidence="proof"`` the certificate instead carries the fast
    write's MAC rows (one per acking replica, over
    ``<FAST-WRITE-ACK, ts>``).  Like proof prepare certificates these are
    only checkable by the replicas the rows address; clients keep them for
    their own bookkeeping and piggyback them so fast replicas can prune
    prepare state, but :meth:`validate` refuses them.
    """

    ts: Timestamp
    signatures: tuple[Signature, ...]
    evidence: str = "quorum"
    rows: tuple[tuple[str, tuple[tuple[str, bytes], ...]], ...] = ()

    def signers(self) -> frozenset[str]:
        """The distinct replica identities that signed this certificate."""
        return frozenset(sig.signer for sig in self.signatures)

    def ackers(self) -> frozenset[str]:
        """Distinct replicas contributing MAC rows (proof evidence)."""
        return frozenset(acker for acker, _row in self.rows)

    def to_wire(self) -> tuple[Any, ...]:
        """Canonical wire representation (nested in messages)."""
        if self.evidence == "proof":
            return ("proof", self.ts.to_wire(), self.rows)
        return (self.ts.to_wire(), tuple(sig.to_wire() for sig in self.signatures))

    @property
    def encoded(self) -> bytes:
        """``canonical_encode(self.to_wire())``, computed once per instance."""
        return encode_once(self, _encode_wire)

    @classmethod
    def from_wire(cls, wire: Any) -> "WriteCertificate":
        """Parse the wire form; raises CertificateError when malformed."""
        if isinstance(wire, tuple) and len(wire) == 3 and wire[0] == "proof":
            _tag, ts_wire, rows = wire
            if not isinstance(rows, tuple):
                raise CertificateError("proof write certificate rows not a tuple")
            return cls(
                ts=Timestamp.from_wire(ts_wire),
                signatures=(),
                evidence="proof",
                rows=rows,
            )
        if not isinstance(wire, tuple) or len(wire) != 2:
            raise CertificateError(f"malformed write certificate: {wire!r}")
        ts_wire, sigs_wire = wire
        return cls(
            ts=Timestamp.from_wire(ts_wire),
            signatures=_signatures_from_wire(sigs_wire),
        )

    def validate(self, scheme: SignatureScheme, quorums: QuorumSystem) -> None:
        """Check well-formedness and all signatures (see PrepareCertificate).

        As there, ``scheme`` may be the verifier; proof evidence
        always raises (own-column checks live in the fast replica).
        """
        if self.evidence == "proof":
            raise CertificateError(
                "proof-evidence certificate is not third-party verifiable"
            )
        signers = self.signers()
        if len(signers) != len(self.signatures):
            raise CertificateError("duplicate signer in write certificate")
        if not quorums.is_quorum(signers):
            raise CertificateError(
                f"write certificate signers {sorted(signers)} do not form a quorum"
            )
        statement = write_reply_statement(self.ts)
        for sig in self.signatures:
            if not scheme.verify(sig, statement):
                raise CertificateError(
                    f"invalid write-certificate signature from {sig.signer}"
                )

    def is_valid(self, scheme: SignatureScheme, quorums: QuorumSystem) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(scheme, quorums)
        except CertificateError:
            return False
        return True


def genesis_prepare_certificate() -> PrepareCertificate:
    """The certificate every replica's state starts from."""
    return PrepareCertificate(
        ts=ZERO_TS, value_hash=hash_value(GENESIS_VALUE), signatures=()
    )
