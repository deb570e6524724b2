"""The optimized write operation (§6): two phases in the common case.

Phase 1 sends ``READ-TS-PREP`` carrying the hash of the proposed value; each
replica predicts the next timestamp and prepares on the client's behalf.  If
a quorum of replicas predicted the *same* timestamp, their inner
``PREPARE-REPLY`` signatures already form a prepare certificate and the
client jumps straight to phase 3.  Otherwise it falls back to an explicit
phase 2, seeding the collection with any phase-1 prepare signatures that
match the chosen timestamp ("obtained either in phase 1 or phase 2").

Fallback trigger: the fast path is abandoned as soon as no timestamp can
still reach a quorum (counting silent replicas as potential agreers), or on
the first retransmission tick after a quorum of replies — waiting longer
cannot be relied on in an asynchronous system.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import Message, ReadTsPrepReply, ReadTsPrepRequest
from repro.core.operations import Send, WriteOperation
from repro.core.phases import signed_by
from repro.core.statements import (
    prepare_reply_statement,
    read_ts_prep_reply_statement,
    read_ts_prep_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.signatures import Signature

__all__ = ["OptimizedWriteOperation"]


class OptimizedWriteOperation(WriteOperation):
    """Write via the merged phase-1/2 fast path, with explicit fallback."""

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
        #: True when phase 3 was reached without an explicit phase 2.
        self.fast_path = False
        self._opt_prep_sigs: dict[str, tuple[Timestamp, Signature]] = {}

    # -- merged phase 1/2 ---------------------------------------------------

    def start(self) -> list[Send]:
        self._phase = 1
        statement = read_ts_prep_request_statement(
            self.value_hash, self.prev_write_cert, self.nonce
        )
        request = ReadTsPrepRequest(
            value_hash=self.value_hash,
            write_cert=self.prev_write_cert,
            nonce=self.nonce,
            signature=self._sign(statement),
        )
        return self._broadcast(request, self._validate_read_ts_prep_reply)

    def _validate_read_ts_prep_reply(
        self, sender: str, message: Message
    ) -> Optional[ReadTsPrepReply]:
        if not isinstance(message, ReadTsPrepReply) or message.nonce != self.nonce:
            return None
        envelope = read_ts_prep_reply_statement(
            message.cert, message.prepared_ts, message.nonce
        )
        if not signed_by(self.config, sender, message.signature, envelope):
            return None
        if not self._certificate_ok(message.cert):
            return None
        if message.prepared_ts is not None:
            inner = prepare_reply_statement(message.prepared_ts, self.value_hash)
            if message.prep_sig is None or not signed_by(
                self.config, sender, message.prep_sig, inner
            ):
                return None
            self._opt_prep_sigs[sender] = (message.prepared_ts, message.prep_sig)
        return message

    def _advance(self) -> list[Send]:
        if self._phase != 1:
            return super()._advance()
        assert self._collector is not None
        quorum = self.config.quorum_size
        counts = Counter(ts for ts, _sig in self._opt_prep_sigs.values())
        for ts, count in counts.items():
            if count >= quorum:
                return self._take_fast_path(ts)
        if not self._collector.have_quorum:
            return []
        # Can any timestamp still reach a quorum if every silent replica
        # agreed with the current leader?
        top = max(counts.values(), default=0)
        silent = self.config.n - self._collector.count
        if top + silent < quorum:
            return self._fall_back()
        return []

    def on_retransmit(self) -> list[Send]:
        # A quorum replied but the fast path has not converged: stop waiting
        # for stragglers and run the explicit phase 2.
        if (
            not self.done
            and self._phase == 1
            and self._collector is not None
            and self._collector.have_quorum
        ):
            return self._fall_back()
        return super().on_retransmit()

    def _take_fast_path(self, ts: Timestamp) -> list[Send]:
        self.fast_path = True
        self._obs_op.set("fast_path", True)
        self._target_ts = ts
        signatures = tuple(
            sig for (sts, sig) in self._opt_prep_sigs.values() if sts == ts
        )
        prepare_cert = PrepareCertificate(
            ts=ts, value_hash=self.value_hash, signatures=signatures
        )
        return self._begin_write(prepare_cert)

    def _fall_back(self) -> list[Send]:
        assert self._collector is not None
        replies: list[ReadTsPrepReply] = list(self._collector.replies.values())
        p_max = max((r.cert for r in replies), key=lambda c: c.ts)
        opt_sigs = dict(self._opt_prep_sigs)
        sends = self._begin_prepare(p_max)
        # Seed the phase-2 round with matching phase-1 signatures ("obtained
        # either in phase 1 or phase 2"); the round's one-vote guard applies.
        assert self._collector is not None and self._target_ts is not None
        for sender, (ts, sig) in opt_sigs.items():
            if ts == self._target_ts:
                self._collector.credit(sender, sig)
        if self._collector.have_quorum:
            return self._advance()
        return sends
