"""The §7 strong-variant write operation (BFT-linearizable+).

The modification: the client's PREPARE must carry a *justify* write
certificate proving that the proposed timestamp is the successor of a write
that actually completed.  The client assembles it as follows:

* If all phase-1 (``READ-TS``) replies in the quorum report the same
  timestamp, their attached timestamp vouches (signatures over
  ``<WRITE-REPLY, ts>``) already form the certificate.
* Otherwise, it "redoes phase 1 as a normal read" to fetch the value, writes
  it back to the replicas that are behind, and combines the read replies'
  vouches with the write-back's ``WRITE-REPLY`` signatures into the
  certificate.

This bounds the lurking-write timestamp to the successor of a value stored
at ≥ f+1 correct replicas when the bad client stopped, so two subsequent
good-client writes mask it (§7.2).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    Message,
    ReadReply,
    ReadRequest,
    ReadTsReply,
    WriteReply,
    WriteRequest,
)
from repro.core.operations import Send, WriteOperation
from repro.core.statements import (
    read_reply_statement,
    write_reply_statement,
    write_request_statement,
)
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature

__all__ = ["StrongWriteOperation"]

_PHASE_FETCH = 11
_PHASE_WRITE_BACK = 12


class StrongWriteOperation(WriteOperation):
    """Write with a justify certificate in PREPARE (§7.2)."""

    op_name = "write"

    def __init__(
        self,
        client_id: str,
        config: SystemConfig,
        value: Any,
        nonce: bytes,
        write_cert: Optional[WriteCertificate],
    ) -> None:
        super().__init__(client_id, config, value, nonce, write_cert)
        self._justify: Optional[WriteCertificate] = None
        self._fetch_best: Optional[ReadReply] = None

    def _justify_cert(self) -> Optional[WriteCertificate]:
        return self._justify

    # -- phase 1: READ-TS with vouch validation -----------------------------

    def _validate_read_ts_reply(
        self, sender: str, message: Message
    ) -> Optional[ReadTsReply]:
        reply = super()._validate_read_ts_reply(sender, message)
        if reply is None:
            return None
        if not self._check_vouch(sender, reply.ts_vouch, reply.cert):
            return None
        return reply

    def _check_vouch(
        self, sender: str, vouch: Optional[Signature], cert: PrepareCertificate
    ) -> bool:
        if vouch is None or vouch.signer != sender:
            return False
        statement = write_reply_statement(cert.ts)
        return self.config.verifier.verify(vouch, statement)

    # -- transitions --------------------------------------------------------

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if self._phase == 1:
            if not self._collector.have_quorum:
                return []
            replies: list[ReadTsReply] = list(self._collector.replies.values())
            timestamps = {r.cert.ts for r in replies}
            if len(timestamps) == 1:
                # All agree: the vouches are the justify certificate.
                ts = timestamps.pop()
                signatures = tuple(
                    r.ts_vouch
                    for r in replies
                    if r.ts_vouch is not None and r.cert.ts == ts
                )
                self._justify = WriteCertificate(ts=ts, signatures=signatures)
                p_max = max((r.cert for r in replies), key=lambda c: c.ts)
                return self._begin_prepare(p_max)
            return self._begin_fetch()
        if self._phase == _PHASE_FETCH:
            if not self._collector.have_quorum:
                return []
            return self._after_fetch()
        if self._phase == _PHASE_WRITE_BACK:
            if self._collector.have_quorum:
                assert self._fetch_best is not None
                return self._make_justify(
                    self._fetch_best, dict(self._collector.replies)
                )
            return []
        return super()._advance()

    # -- value fetch (redo phase 1 as a normal read, §7.2) -------------------

    def _begin_fetch(self) -> list[Send]:
        self._phase = _PHASE_FETCH
        return self._broadcast(
            ReadRequest(nonce=self.nonce), self._validate_fetch_reply
        )

    def _validate_fetch_reply(self, sender: str, message: Message) -> Optional[ReadReply]:
        if not isinstance(message, ReadReply) or message.nonce != self.nonce:
            return None
        if message.signature.signer != sender:
            return None
        statement = read_reply_statement(
            message.value, message.cert, message.nonce
        )
        if not self.config.verifier.verify(message.signature, statement):
            return None
        if not self.config.verifier.certificate_valid(message.cert):
            return None
        if message.cert.h != hash_value(message.value):
            return None
        if not self._check_vouch(sender, message.ts_vouch, message.cert):
            return None
        return message

    def _after_fetch(self) -> list[Send]:
        assert self._collector is not None
        replies: list[ReadReply] = list(self._collector.replies.values())
        best = max(replies, key=lambda r: (r.cert.ts, r.cert.h))
        self._fetch_best = best
        vouches = {
            sender: r.ts_vouch
            for sender, r in self._collector.replies.items()
            if r.cert.ts == best.cert.ts and r.ts_vouch is not None
        }
        if len(vouches) >= self.config.quorum_size:
            return self._make_justify(best, vouches)
        return self._begin_write_back(best, vouches)

    # -- write-back of the highest value ------------------------------------

    def _begin_write_back(
        self, best: ReadReply, vouches: dict[str, Signature]
    ) -> list[Send]:
        self._phase = _PHASE_WRITE_BACK
        statement = write_request_statement(best.value, best.cert)
        request = WriteRequest(
            value=best.value,
            prepare_cert=best.cert,
            signature=self._sign(statement),
        )
        targets = tuple(
            r for r in self.config.quorums.replica_ids if r not in vouches
        )
        # The vouch holders are credited into the round: they count toward
        # the quorum and are excluded from retransmission, and the combined
        # replies (vouches + WRITE-REPLY signatures) form the justify
        # certificate once a quorum is reached.
        return self._broadcast(
            request, self._validate_write_back_reply, targets, prefill=vouches
        )

    def _validate_write_back_reply(
        self, sender: str, message: Message
    ) -> Optional[Signature]:
        assert self._fetch_best is not None
        if not isinstance(message, WriteReply):
            return None
        if message.ts != self._fetch_best.cert.ts:
            return None
        if message.signature.signer != sender:
            return None
        statement = write_reply_statement(message.ts)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature

    def _make_justify(
        self, best: ReadReply, vouches: dict[str, Signature]
    ) -> list[Send]:
        signatures = tuple(vouches.values())[: self.config.n]
        self._justify = WriteCertificate(ts=best.cert.ts, signatures=signatures)
        return self._begin_prepare(best.cert)
