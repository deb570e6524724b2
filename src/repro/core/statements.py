"""Canonical statement builders for everything the protocol signs or MACs.

Keeping every signed byte-string's construction in one module guarantees
that clients, replicas, and certificate validators all agree on exactly what
a signature covers.  A *statement* is the canonical encoding of a tuple
whose first element names the statement type; each builder returns those
bytes, ready for ``sign``, ``verify``, ``mac`` or ``check``.

Builders take protocol objects, not wire tuples.  A certificate is spliced
in as its stashed canonical bytes (``cert.encoded``, see
:class:`repro.encoding.Encoded`), so a replica that embeds its stored
certificate in every phase-1 and read reply encodes it once, and the bytes
are identical to encoding the statement's historical tuple form.

Statement inventory (paper notation on the left):

* ``<PREPARE-REPLY, ts, h>_sigma_r``      -> :func:`prepare_reply_statement`
* ``<WRITE-REPLY, ts>_sigma_r``           -> :func:`write_reply_statement`
* ``<READ-TS-REPLY, P, nonce>_sigma_r``   -> :func:`read_ts_reply_statement`
* ``<READ-REPLY, val, P, nonce>_sigma_r`` -> :func:`read_reply_statement`
* ``<PREPARE, ...>_sigma_c``              -> :func:`prepare_request_statement`
* ``<WRITE, val, P>_sigma_c``             -> :func:`write_request_statement`
* optimized ``READ-TS-PREP`` reply        -> reuses the two reply statements
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.timestamp import Timestamp
from repro.encoding import Encoded, canonical_encode

if TYPE_CHECKING:
    from repro.core.certificates import PrepareCertificate, WriteCertificate

    Certificate = Union[PrepareCertificate, WriteCertificate]

__all__ = [
    "prepare_reply_statement",
    "write_reply_statement",
    "read_ts_reply_statement",
    "read_reply_statement",
    "prepare_request_statement",
    "write_request_statement",
    "read_ts_prep_request_statement",
    "read_ts_prep_reply_statement",
    "fast_prep_request_statement",
    "fast_prep_ack_statement",
    "fast_prep_reply_statement",
    "fast_write_request_statement",
    "fast_write_ack_statement",
    "fast_write_reply_statement",
    "fast_vouch_statement",
]


def _cert(cert: Optional[Certificate]) -> Optional[Encoded]:
    """A certificate's stashed bytes, spliced; ``None`` stays ``None``."""
    return None if cert is None else Encoded(cert.encoded)


def _ts(ts: Optional[Timestamp]) -> Any:
    return None if ts is None else ts.to_wire()


def prepare_reply_statement(ts: Timestamp, value_hash: bytes) -> bytes:
    """Body of a phase-2 reply; a quorum of these is a prepare certificate."""
    return canonical_encode(("PREPARE-REPLY", ts.to_wire(), value_hash))


def write_reply_statement(ts: Timestamp) -> bytes:
    """Body of a phase-3 reply; a quorum of these is a write certificate."""
    return canonical_encode(("WRITE-REPLY", ts.to_wire()))


def read_ts_reply_statement(cert: PrepareCertificate, nonce: bytes) -> bytes:
    """Phase-1 reply envelope: binds the returned certificate to the nonce."""
    return canonical_encode(("READ-TS-REPLY", _cert(cert), nonce))


def read_reply_statement(
    value: Any, cert: PrepareCertificate, nonce: bytes
) -> bytes:
    """Read reply envelope: binds value + certificate to the nonce."""
    return canonical_encode(("READ-REPLY", value, _cert(cert), nonce))


def prepare_request_statement(
    prev_cert: PrepareCertificate,
    ts: Timestamp,
    value_hash: bytes,
    write_cert: Optional[WriteCertificate],
    justify_cert: Optional[WriteCertificate],
) -> bytes:
    """Body of the client-signed PREPARE request.

    ``justify_cert`` is ``None`` except in the §7 strong variant, where it
    is the write certificate proving the proposed timestamp succeeds a
    completed write.
    """
    return canonical_encode(
        (
            "PREPARE",
            _cert(prev_cert),
            ts.to_wire(),
            value_hash,
            _cert(write_cert),
            _cert(justify_cert),
        )
    )


def write_request_statement(value: Any, prepare_cert: PrepareCertificate) -> bytes:
    """Body of the client-signed WRITE request."""
    return canonical_encode(("WRITE", value, _cert(prepare_cert)))


def read_ts_prep_request_statement(
    value_hash: bytes, write_cert: Optional[WriteCertificate], nonce: bytes
) -> bytes:
    """Body of the optimized protocol's merged phase-1/2 request (§6.2)."""
    return canonical_encode(("READ-TS-PREP", value_hash, _cert(write_cert), nonce))


def read_ts_prep_reply_statement(
    cert: PrepareCertificate, prepared_ts: Optional[Timestamp], nonce: bytes
) -> bytes:
    """Envelope of the merged phase-1/2 reply (the transferable part is the
    inner ``PREPARE-REPLY`` signature; this binds the rest to the nonce)."""
    return canonical_encode(
        ("READ-TS-PREP-REPLY", _cert(cert), _ts(prepared_ts), nonce)
    )


# -- fast path (signature-free proofs of writing) ---------------------------
#
# Fast-path statements are authenticated with pairwise MACs, never digital
# signatures; the builders exist so every role MACs exactly the same bytes.


def fast_prep_request_statement(
    client: str,
    value_hash: bytes,
    commitment: bytes,
    write_cert: Optional[WriteCertificate],
    nonce: bytes,
) -> bytes:
    """Body of the MAC-authenticated FAST-PREP request."""
    return canonical_encode(
        ("FAST-PREP", client, value_hash, commitment, _cert(write_cert), nonce)
    )


def fast_prep_ack_statement(
    prepared_ts: Timestamp, value_hash: bytes, commitment: bytes
) -> bytes:
    """The acknowledgement each fast-prep MAC row covers (the transferable
    part of the fast prepare, analogous to ``PREPARE-REPLY``)."""
    return canonical_encode(
        ("FAST-PREP-ACK", prepared_ts.to_wire(), value_hash, commitment)
    )


def fast_prep_reply_statement(
    replica: str,
    client: str,
    prepared_ts: Optional[Timestamp],
    value_hash: bytes,
    commitment: bytes,
    nonce: bytes,
) -> bytes:
    """Envelope of the fast-prep reply, MAC'd replica -> client."""
    return canonical_encode(
        (
            "FAST-PREP-REPLY",
            replica,
            client,
            _ts(prepared_ts),
            value_hash,
            commitment,
            nonce,
        )
    )


def fast_write_request_statement(
    client: str, ts: Timestamp, value_hash: bytes, commitment: bytes, nonce: bytes
) -> bytes:
    """Body of the MAC-authenticated FAST-WRITE request (the value travels
    outside the statement; its hash binds it)."""
    return canonical_encode(
        ("FAST-WRITE", client, ts.to_wire(), value_hash, commitment, nonce)
    )


def fast_write_ack_statement(ts: Timestamp) -> bytes:
    """The acknowledgement each fast-write MAC row covers (the fast analogue
    of ``WRITE-REPLY``)."""
    return canonical_encode(("FAST-WRITE-ACK", ts.to_wire()))


def fast_write_reply_statement(
    replica: str, client: str, ts: Timestamp, nonce: bytes
) -> bytes:
    """Envelope of the fast-write reply, MAC'd replica -> client."""
    return canonical_encode(
        ("FAST-WRITE-REPLY", replica, client, ts.to_wire(), nonce)
    )


def fast_vouch_statement(ts: Timestamp, value_hash: bytes) -> bytes:
    """A replica's *signed* vouch that it installed ``(ts, h)`` via the fast
    path.  MAC rows are not transferable, so every point where fast-path
    evidence must convince a third party (read-ts replies, fallback reads)
    carries ``f+1`` of these instead; signing is lazy and off the write path.
    """
    return canonical_encode(("FAST-VOUCH", ts.to_wire(), value_hash))
