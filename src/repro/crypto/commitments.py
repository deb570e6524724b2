"""Hash-commitment proofs of writing (the fast path's crypto primitive).

PoWerStore ("Proofs of Writing for Efficient and Robust Storage",
arXiv 1212.3555) replaces common-case signatures with a two-round
commit/reveal exchange: the writer commits to a secret *opening* in the
prepare round and reveals it in the write round, proving to every replica
that the write round was preceded by a completed prepare round — without
any digital signature.  This module supplies that primitive, adapted to
BFT-BC's multi-writer setting:

* the **opening** is bound to the writer, the value hash, and a fresh
  per-operation nonce, so openings never collide across clients or rounds;
* the **commitment** is a plain hash of the opening — binding by collision
  resistance of SHA-256, hiding enough for this use (the opening itself
  contains a high-entropy nonce);
* replica acknowledgements are **MAC rows**: one MAC per potential
  *receiver* replica over the acknowledged statement, so any replica can
  later check, with its own session key, that the acker really produced the
  acknowledgement.  A quorum of rows over the same statement is a
  :class:`ProofOfWriting` — the fast path's signature-free evidence.

MAC rows are deliberately *not* transferable between verifiers: a Byzantine
acker can make its row valid for one receiver and garbage for another, so a
third party that did not check its own column learns nothing.  Fast-path
evidence therefore never travels beyond the replica that verified it; every
transfer point in the protocol upgrades to signed vouches
(see ``repro.core.fast_replica``).
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any, Iterable

from repro.crypto.authenticators import MacAuthenticator
from repro.crypto.hashing import DIGEST_SIZE, digest
from repro.encoding import canonical_encode, encode_once
from repro.errors import CertificateError

__all__ = [
    "make_opening",
    "make_commitment",
    "verify_opening",
    "make_mac_row",
    "row_mac_for",
    "ProofOfWriting",
]

_OPEN_TAG = b"pow-open"
_COMMIT_TAG = b"pow-commit"


def make_opening(client: str, value_hash: bytes, nonce: bytes) -> bytes:
    """The writer's secret: bound to who writes what, freshly per round.

    Binding the client identity and value hash means an opening revealed for
    one write can never be replayed to open a commitment made by another
    client or for another value; the nonce makes openings of two writes of
    the same value by the same client distinct.
    """
    return digest(_OPEN_TAG, client.encode("utf-8"), value_hash, nonce)


def make_commitment(opening: bytes) -> bytes:
    """The public commitment sent in the fast prepare round."""
    return digest(_COMMIT_TAG, opening)


def verify_opening(commitment: bytes, opening: bytes) -> bool:
    """Does ``opening`` open ``commitment``?  Constant-time compare."""
    if not isinstance(commitment, bytes) or not isinstance(opening, bytes):
        return False
    if len(opening) != DIGEST_SIZE:
        return False
    return hmac.compare_digest(make_commitment(opening), commitment)


def make_mac_row(
    auth: MacAuthenticator,
    sender: str,
    receivers: Iterable[str],
    message: bytes,
) -> tuple[tuple[str, bytes], ...]:
    """One MAC per receiver over ``message``, as a sorted (receiver, mac) row."""
    return tuple(
        (receiver, auth.mac(sender, receiver, message))
        for receiver in sorted(receivers)
    )


def row_mac_for(
    row: tuple[tuple[str, bytes], ...], receiver: str
) -> bytes | None:
    """The MAC addressed to ``receiver`` in a row, or None."""
    for entry_receiver, mac in row:
        if entry_receiver == receiver:
            return mac
    return None


def _encode_wire(value: Any) -> bytes:
    return canonical_encode(value.to_wire())


@dataclass(frozen=True)
class ProofOfWriting:
    """Commitment, its opening, and the ackers' MAC rows over one statement.

    ``rows`` maps each acknowledging replica to its MAC row, as a sorted
    tuple of ``(acker, row)`` pairs so the wire form is canonical.  The
    proof is only meaningful to a replica that checks *its own column*
    (:meth:`count_valid_for`); it carries the commitment so the verifying
    replica can rebuild the acknowledged statement without extra context.
    """

    commitment: bytes
    opening: bytes
    rows: tuple[tuple[str, tuple[tuple[str, bytes], ...]], ...]

    def ackers(self) -> frozenset[str]:
        """The distinct replicas contributing rows (validity not implied)."""
        return frozenset(acker for acker, _row in self.rows)

    def opens(self) -> bool:
        """Does the revealed opening match the commitment?"""
        return verify_opening(self.commitment, self.opening)

    def count_valid_for(
        self, auth: MacAuthenticator, receiver: str, message: bytes
    ) -> int:
        """Distinct ackers whose row carries a valid MAC *to this receiver*.

        This is the only sound way to consume a proof: each replica counts
        the MACs addressed to itself.  Rows without an entry for the
        receiver, or with an invalid one, contribute nothing.
        """
        valid = 0
        seen: set[str] = set()
        for acker, row in self.rows:
            if acker in seen:
                continue
            seen.add(acker)
            mac = row_mac_for(row, receiver)
            if mac is not None and auth.check(acker, receiver, message, mac):
                valid += 1
        return valid

    def to_wire(self) -> tuple[Any, ...]:
        return (self.commitment, self.opening, self.rows)

    @property
    def encoded(self) -> bytes:
        """``canonical_encode(self.to_wire())``, computed once per instance."""
        return encode_once(self, _encode_wire)

    @classmethod
    def from_wire(cls, wire: Any) -> "ProofOfWriting":
        if not isinstance(wire, tuple) or len(wire) != 3:
            raise CertificateError(f"malformed proof of writing: {wire!r}")
        commitment, opening, rows_wire = wire
        if not isinstance(commitment, bytes) or not isinstance(opening, bytes):
            raise CertificateError("proof of writing commitment/opening not bytes")
        if not isinstance(rows_wire, tuple):
            raise CertificateError("proof of writing rows not a tuple")
        rows = []
        for item in rows_wire:
            if not isinstance(item, tuple) or len(item) != 2:
                raise CertificateError(f"malformed proof row: {item!r}")
            acker, row = item
            if not isinstance(acker, str) or not isinstance(row, tuple):
                raise CertificateError(f"malformed proof row: {item!r}")
            for entry in row:
                if (
                    not isinstance(entry, tuple)
                    or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], bytes)
                ):
                    raise CertificateError(f"malformed proof row entry: {entry!r}")
            rows.append((acker, row))
        return cls(commitment=commitment, opening=opening, rows=tuple(rows))
