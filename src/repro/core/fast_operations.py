"""Fast-path client operations: MAC-only writes with a verified fallback.

:class:`FastWriteOperation` attempts the two-round signature-free write
(FAST-PREP then FAST-WRITE, see ``repro.core.fast_replica``).  The common
case costs the client zero signature operations: requests carry pairwise MAC
vectors, replies carry MAC rows, and the assembled
:class:`~repro.crypto.commitments.ProofOfWriting` plus the quorum of
write-ack rows replace the prepare and write certificates.

When the fast path cannot converge — predicted timestamps disagree beyond
repair, a quorum of acks cannot be assembled, or progress stalls across
retransmission ticks — the operation **falls back** to the signed base
protocol it inherits from :class:`~repro.core.operations.WriteOperation`.
Fallback begins with a signed READ-TS round whose replies may legitimately
carry *non-transferable* proof-evidence certificates; the choice of
``p_max`` therefore follows three rules, applied to candidate groups
``G = (ts, h)`` in descending order:

1. **Eligible wins** — a group backed by third-party-verifiable evidence
   (a quorum or vouch certificate) or by ``f+1`` distinct ``pvouch``
   signatures (which the client assembles into a transferable
   ``vouch``-evidence certificate) is chosen as ``p_max``.
2. **Provably-safe demotion** — a group is skipped when at least ``2f+1``
   valid replies do *not* carry it: a completed fast write is installed at
   ``f+1`` correct replicas, so at most ``2f`` valid replies can omit it —
   ``2f+1`` omissions prove the write never completed, and ordering below
   it cannot violate atomicity.
3. **Tick-bounded demotion** — after :data:`DEMOTION_TICKS` retransmission
   ticks with a quorum of replies, remaining unverifiable groups are
   skipped.  This is a liveness escape, not a safety proof: in a fully
   asynchronous run a completed-but-unvouchable write could in principle be
   ordered below (the same window §6.3 accepts for the optimized read
   tie-break); replicas re-converge via the write-back path.

:class:`FastReadOperation` applies the same eligibility and demotion rules
to reads, since fast replicas return proof-evidence certificates there too,
and uses the assembled vouch certificate for the §3.2.2 write-back.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace as dataclass_replace
from typing import Any, Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    FastPrepReply,
    FastPrepRequest,
    FastWriteReply,
    FastWriteRequest,
    Message,
    ReadReply,
    ReadTsReply,
    ReadTsRequest,
)
from repro.core.operations import Operation, ReadOperation, Send, WriteOperation
from repro.core.phases import signed_by
from repro.core.statements import (
    fast_prep_reply_statement,
    fast_prep_request_statement,
    fast_vouch_statement,
    fast_write_reply_statement,
    fast_write_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.commitments import (
    ProofOfWriting,
    make_commitment,
    make_mac_row,
    make_opening,
)
from repro.crypto.hashing import digest
from repro.crypto.signatures import Signature

__all__ = ["FastWriteOperation", "FastReadOperation", "DEMOTION_TICKS"]

#: Retransmission ticks (with a quorum of replies) before rule 3 demotes
#: unverifiable fallback candidates, and before a stalled fast phase gives
#: up and falls back to the signed protocol.
DEMOTION_TICKS = 3


def _accept_proof_evidence(op: Operation, cert: PrepareCertificate) -> bool:
    """Proof evidence is not third-party verifiable, but the signed envelope
    authenticates the reply; its ``(ts, h)`` group becomes eligible only
    through pvouches or another replica's transferable certificate."""
    return cert.evidence == "proof" or op.config.verifier.certificate_valid(cert)


def _record_group_evidence(op: Any, sender: str, reply: Any) -> None:
    """File ``reply``'s evidence under its ``(ts, h)`` group: its
    certificate when third-party verifiable, and its pvouch if its sender
    signed ``<FAST-VOUCH, ts, h>``."""
    cert = reply.cert
    key = (cert.ts, cert.value_hash)
    if cert.evidence != "proof":
        op._group_certs.setdefault(key, cert)
    if reply.pvouch is not None and signed_by(
        op.config,
        sender,
        reply.pvouch,
        fast_vouch_statement(cert.ts, cert.value_hash),
    ):
        op._pvouches.setdefault(key, {})[sender] = reply.pvouch


def _eligible_group(
    op: Any,
) -> Optional[tuple[tuple[Timestamp, bytes], PrepareCertificate]]:
    """The highest ``(ts, h)`` group among ``op``'s collected replies that
    the three ordering rules (module docstring) make eligible, with its
    transferable certificate; None while the operation must wait.

    ``op`` is a fast write's fallback or a fast read: both file evidence
    through :func:`_record_group_evidence` and count ``_demote_ticks``.
    """
    replies = op._collector.replies
    carriers: Counter = Counter(
        (r.cert.ts, r.cert.value_hash) for r in replies.values()
    )
    count = len(replies)
    need = op.config.quorum_size  # 2f+1 omissions prove non-completion
    for key in sorted(carriers, reverse=True):
        cert = op._group_certs.get(key)
        if cert is not None:
            return key, cert  # rule 1: transferable certificate
        vouches = op._pvouches.get(key, {})
        if len(vouches) >= op.config.f + 1:
            ts, value_hash = key
            return key, PrepareCertificate(  # rule 1: f+1 pvouches
                ts=ts,
                value_hash=value_hash,
                signatures=tuple(vouches[s] for s in sorted(vouches)),
                evidence="vouch",
            )
        if count - carriers[key] >= need:
            continue  # rule 2: provably never completed
        if op._demote_ticks >= DEMOTION_TICKS:
            continue  # rule 3: liveness escape
        return None  # keep waiting for vouches or more replies
    return None


class FastWriteOperation(WriteOperation):
    """Write via proofs of writing, falling back to the signed protocol.

    ``fast_path`` is True when the write completed signature-free;
    ``fell_back`` when it re-ran through the signed phases (a fallback write
    executes up to five phases: the fast rounds it abandoned count, one when
    FAST-PREP failed, both when FAST-WRITE stalled below quorum).
    """

    op_name = "write"
    _certificate_ok = _accept_proof_evidence

    def __init__(
        self,
        client_id: str,
        config: SystemConfig,
        value: Any,
        nonce: bytes,
        write_cert: Optional[WriteCertificate],
    ) -> None:
        super().__init__(client_id, config, value, nonce, write_cert)
        self.fast_path = False
        self.fell_back = False
        self.opening = make_opening(client_id, self.value_hash, nonce)
        self.commitment = make_commitment(self.opening)
        #: 1 = FAST-PREP, 2 = FAST-WRITE, None = fallen back to signed.
        self._fast_phase: Optional[int] = 0
        self._auth = config.authenticator
        self._fast_pts: dict[str, Timestamp] = {}
        self._fast_rows: dict[str, tuple[tuple[str, bytes], ...]] = {}
        self._write_nonce = digest(b"fast-write", nonce)
        self._fb_nonce = digest(b"fast-fallback", nonce)
        self._fast_ticks = 0
        self._demote_ticks = 0
        # Fallback phase-1 bookkeeping: per candidate (ts, h) group, the
        # best transferable certificate seen and the pvouches collected.
        self._group_certs: dict[tuple[Timestamp, bytes], PrepareCertificate] = {}
        self._pvouches: dict[tuple[Timestamp, bytes], dict[str, Signature]] = {}

    # -- fast phase 1: FAST-PREP -------------------------------------------

    def start(self) -> list[Send]:
        self._fast_phase = 1
        # Like PREPARE and READ-TS-PREP, the fast prepare always carries the
        # previous write certificate — it is what clears this client's
        # prepare-list entries (Figure 1 phase 2, not the §3.3.1 option).
        wcert = self.prev_write_cert
        request_stmt = fast_prep_request_statement(
            self.client_id, self.value_hash, self.commitment, wcert, self.nonce
        )
        request = FastPrepRequest(
            client=self.client_id,
            value_hash=self.value_hash,
            commitment=self.commitment,
            nonce=self.nonce,
            write_cert=wcert,
            macs=make_mac_row(
                self._auth,
                self.client_id,
                self.config.quorums.replica_ids,
                request_stmt,
            ),
        )
        return self._broadcast(request, self._validate_fast_prep_reply)

    def _validate_fast_prep_reply(
        self, sender: str, message: Message
    ) -> Optional[FastPrepReply]:
        if not isinstance(message, FastPrepReply) or message.nonce != self.nonce:
            return None
        if message.replica != sender:
            return None
        envelope = fast_prep_reply_statement(
            sender,
            self.client_id,
            message.prepared_ts,
            self.value_hash,
            self.commitment,
            self.nonce,
        )
        if not self._auth.check(sender, self.client_id, envelope, message.mac):
            return None
        if message.prepared_ts is not None:
            self._fast_pts[sender] = message.prepared_ts
            self._fast_rows[sender] = message.row
        # A MAC-authenticated refusal still counts as a vote: enough of
        # them trigger fallback, mirroring the §6 optimistic phase.
        return message

    # -- fast phase 2: FAST-WRITE ------------------------------------------

    def _begin_fast_write(self, ts: Timestamp) -> list[Send]:
        self.fast_path = True
        self._obs_op.set("fast_path", True)
        self._fast_phase = 2
        self._target_ts = ts
        rows = tuple(
            sorted(
                (sender, row)
                for sender, row in self._fast_rows.items()
                if self._fast_pts.get(sender) == ts
            )
        )
        proof = ProofOfWriting(
            commitment=self.commitment, opening=self.opening, rows=rows
        )
        request_stmt = fast_write_request_statement(
            self.client_id, ts, self.value_hash, self.commitment, self._write_nonce
        )
        request = FastWriteRequest(
            client=self.client_id,
            ts=ts,
            value=self.value,
            proof=proof,
            nonce=self._write_nonce,
            macs=make_mac_row(
                self._auth,
                self.client_id,
                self.config.quorums.replica_ids,
                request_stmt,
            ),
        )
        return self._broadcast(request, self._validate_fast_write_reply)

    def _validate_fast_write_reply(
        self, sender: str, message: Message
    ) -> Optional[FastWriteReply]:
        if not isinstance(message, FastWriteReply):
            return None
        if message.nonce != self._write_nonce or message.replica != sender:
            return None
        if message.ts != self._target_ts:
            return None
        envelope = fast_write_reply_statement(
            sender, self.client_id, message.ts, self._write_nonce
        )
        if not self._auth.check(sender, self.client_id, envelope, message.mac):
            return None
        return message

    # -- fallback: the signed protocol -------------------------------------

    def _fall_back(self) -> list[Send]:
        """Abandon the fast rounds; restart through signed READ-TS."""
        self.fell_back = True
        self.fast_path = False
        self._obs_op.set("fell_back", True)
        self._fast_phase = None
        self._demote_ticks = 0
        self._phase = 1
        piggyback = (
            self.prev_write_cert if self.config.piggyback_write_certs else None
        )
        return self._broadcast(
            ReadTsRequest(nonce=self._fb_nonce, write_cert=piggyback),
            self._validate_fallback_read_ts_reply,
        )

    def _validate_fallback_read_ts_reply(
        self, sender: str, message: Message
    ) -> Optional[ReadTsReply]:
        reply = self._read_ts_reply(sender, message, self._fb_nonce)
        if reply is not None:
            _record_group_evidence(self, sender, reply)
        return reply

    # -- transitions --------------------------------------------------------

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if self._fast_phase == 1:
            quorum = self.config.quorum_size
            counts = Counter(self._fast_pts.values())
            for ts, count in counts.items():
                if count >= quorum:
                    return self._begin_fast_write(ts)
            if not self._collector.have_quorum:
                return []
            top = max(counts.values(), default=0)
            silent = self.config.n - self._collector.count
            if top + silent < quorum:
                return self._fall_back()
            return []
        if self._fast_phase == 2:
            if not self._collector.have_quorum:
                return []
            assert self._target_ts is not None
            rows = tuple(
                sorted(
                    (sender, reply.row)
                    for sender, reply in self._collector.replies.items()
                )
            )
            self.new_write_cert = WriteCertificate(
                ts=self._target_ts,
                signatures=(),
                evidence="proof",
                rows=rows,
            )
            return self._finish(self._target_ts)
        if self._phase == 1:
            if not self._collector.have_quorum:
                return []
            chosen = _eligible_group(self)
            if chosen is None:
                return []
            return self._begin_prepare(chosen[1])
        return super()._advance()

    def on_retransmit(self) -> list[Send]:
        if self.done:
            return []
        if self._fast_phase in (1, 2):
            self._fast_ticks += 1
            if self._fast_phase == 1 and self._collector is not None:
                # Mirror the §6 rule: a quorum replied without converging —
                # stop waiting for stragglers.
                if self._collector.have_quorum:
                    return self._fall_back()
            if self._fast_ticks >= DEMOTION_TICKS:
                # Stalled below quorum (e.g. fast requests are being
                # dropped): the signed protocol is the liveness path.
                return self._fall_back()
            return super().on_retransmit()
        if self._phase == 1 and self._collector is not None:
            if self._collector.have_quorum:
                self._demote_ticks += 1
                sends = self._advance()
                if sends or self.done:
                    return sends
        return super().on_retransmit()


class FastReadOperation(ReadOperation):
    """Read that understands proof-evidence certificates.

    Groups replies by ``(ts, h)`` exactly like the base read, but a group
    whose only evidence is non-transferable must earn eligibility through
    ``f+1`` pvouches (assembled into a vouch certificate used for any
    write-back) or be demoted by the same two rules the write fallback uses.
    """

    op_name = "read"
    _certificate_ok = _accept_proof_evidence

    def __init__(
        self,
        client_id: str,
        config: SystemConfig,
        nonce: bytes,
        *,
        hash_tie_break: bool = True,
        write_cert: Optional[WriteCertificate] = None,
    ) -> None:
        super().__init__(
            client_id,
            config,
            nonce,
            hash_tie_break=hash_tie_break,
            write_cert=write_cert,
        )
        self._group_certs: dict[tuple[Timestamp, bytes], PrepareCertificate] = {}
        self._pvouches: dict[tuple[Timestamp, bytes], dict[str, Signature]] = {}
        self._demote_ticks = 0

    def _validate_read_reply(
        self, sender: str, message: Message
    ) -> Optional[ReadReply]:
        reply = super()._validate_read_reply(sender, message)
        if reply is not None:
            _record_group_evidence(self, sender, reply)
        return reply

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if self._phase != 1:
            return super()._advance()
        if not self._collector.have_quorum:
            return []
        chosen = _eligible_group(self)
        if chosen is None:
            return []  # wait for vouches or more replies
        key, cert = chosen
        replies: dict[str, ReadReply] = self._collector.replies
        up_to_date = frozenset(
            sender
            for sender, r in replies.items()
            if (r.cert.ts, r.cert.value_hash) == key
        )
        best = next(
            r for r in replies.values() if (r.cert.ts, r.cert.value_hash) == key
        )
        # Write-back must present transferable evidence, so the chosen
        # certificate replaces a proof-evidence one.
        best = dataclass_replace(best, cert=cert)
        self._best = best
        if len(up_to_date) >= self.config.quorum_size:
            return self._finish(best.value)
        return self._begin_write_back(best, up_to_date)

    def on_retransmit(self) -> list[Send]:
        if (
            not self.done
            and self._phase == 1
            and self._collector is not None
            and self._collector.have_quorum
        ):
            self._demote_ticks += 1
            sends = self._advance()
            if sends or self.done:
                return sends
        return super().on_retransmit()
