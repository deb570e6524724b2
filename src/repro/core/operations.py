"""Sans-I/O client operation state machines for the base protocol.

Each operation (write, read) is a little state machine: it emits request
batches (:class:`Send` lists), consumes replies via :meth:`Operation.on_message`,
and retransmits to non-responders via :meth:`Operation.on_retransmit` — the
paper's only liveness mechanism ("clients retransmit their requests ...; they
stop retransmitting once they collect a quorum of valid replies").

Every phase is a :class:`~repro.core.phases.QuorumRound`; this module keeps
only the transitions and per-phase validators.  Keeping operations sans-I/O
lets exactly the same protocol logic run on the deterministic simulator and
on the asyncio TCP transport.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    Message,
    PrepareReply,
    PrepareRequest,
    ReadReply,
    ReadRequest,
    ReadTsReply,
    ReadTsRequest,
    WriteReply,
    WriteRequest,
)
from repro.core.phases import QuorumRound, Send
from repro.core.statements import (
    prepare_reply_statement,
    prepare_request_statement,
    read_reply_statement,
    read_ts_reply_statement,
    write_reply_statement,
    write_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature
from repro.obs.instrumentation import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.spans import NULL_SPAN

__all__ = [
    "Send",
    "Operation",
    "WriteOperation",
    "ReadOperation",
]


class Operation:
    """Base class for client operations.

    Subclasses drive the phases; the surrounding client (or transport
    adapter) delivers messages and retransmission ticks.  ``phases`` counts
    distinct protocol phases actually executed — the quantity experiment E1
    reports.
    """

    op_name = "op"

    def __init__(self, client_id: str, config: SystemConfig) -> None:
        self.client_id = client_id
        self.config = config
        self.done = False
        self.result: Any = None
        self.phases = 0
        self._collector: Optional[QuorumRound] = None
        self._instr = NULL_INSTRUMENTATION
        self._obs_op = NULL_SPAN
        self._obs_phase = NULL_SPAN

    def instrument(self, instr: Optional[Instrumentation]) -> None:
        """Bind an instrumentation handle; opens the operation's root span.

        Must be called before :meth:`start` (the client does).  With no
        handle, or a disabled one, every span below is the no-op
        :data:`~repro.obs.spans.NULL_SPAN`.
        """
        if instr is None:
            return
        self._instr = instr
        self._obs_op = instr.op_span(self.op_name, client=self.client_id)

    # -- protocol driver interface ----------------------------------------

    def start(self) -> list[Send]:
        """Send the first phase's requests."""
        raise NotImplementedError

    def on_message(self, sender: str, message: Message) -> list[Send]:
        """Deliver a reply; returns any next-phase requests to send."""
        if self.done or self._collector is None:
            return []
        if not self._collector.add(sender, message):
            return []
        return self._advance()

    def on_retransmit(self) -> list[Send]:
        """Periodic tick: resend the current request to non-responders."""
        if self.done or self._collector is None:
            return []
        return self._collector.retransmit()

    # -- helpers for subclasses --------------------------------------------

    def _advance(self) -> list[Send]:
        """Called after each accepted reply; subclass decides transitions."""
        raise NotImplementedError

    def _broadcast(
        self,
        message: Message,
        validator: Callable[[str, Message], Optional[Any]],
        targets: Optional[tuple[str, ...]] = None,
        *,
        prefill: Optional[Mapping[str, Any]] = None,
    ) -> list[Send]:
        """Begin a phase: install a :class:`QuorumRound`, emit its batch.

        With ``config.prefer_quorum`` the initial batch goes to a preferred
        quorum of 2f+1 replicas only (§3.3.1's O(|Q|) message discipline);
        retransmission naturally widens to every silent replica.  ``prefill``
        credits votes known before the round starts (write-back paths).
        """
        self.phases += 1
        self._obs_phase.end()
        self._obs_phase = self._instr.phase_span(
            message.KIND, parent=self._obs_op
        )
        self._collector = QuorumRound(
            self.config,
            message,
            validator,
            targets=targets,
            prefill=prefill,
            span=self._obs_phase,
        )
        return self._collector.begin()

    def _finish(self, result: Any) -> list[Send]:
        self.done = True
        self.result = result
        self._collector = None
        self._obs_phase.end()
        self._obs_op.set("phases", self.phases)
        self._obs_op.end()
        return []

    def _sign(self, statement: bytes) -> Signature:
        return self.config.scheme.sign(self.client_id, statement)


class WriteOperation(Operation):
    """The three-phase base write protocol (Figure 1)."""

    op_name = "write"

    def __init__(
        self,
        client_id: str,
        config: SystemConfig,
        value: Any,
        nonce: bytes,
        write_cert: Optional[WriteCertificate],
    ) -> None:
        super().__init__(client_id, config)
        self.value = value
        self.value_hash = hash_value(value)
        self.nonce = nonce
        self.prev_write_cert = write_cert
        #: The write certificate assembled in phase 3, for the client to
        #: retain for its next write.
        self.new_write_cert: Optional[WriteCertificate] = None
        self._phase = 0
        self._p_max: Optional[PrepareCertificate] = None
        self._target_ts: Optional[Timestamp] = None
        self._prepare_cert: Optional[PrepareCertificate] = None

    # -- phase 1: READ-TS ----------------------------------------------------

    def start(self) -> list[Send]:
        self._phase = 1
        piggyback = (
            self.prev_write_cert if self.config.piggyback_write_certs else None
        )
        return self._broadcast(
            ReadTsRequest(nonce=self.nonce, write_cert=piggyback),
            self._validate_read_ts_reply,
        )

    def _validate_read_ts_reply(
        self, sender: str, message: Message
    ) -> Optional[ReadTsReply]:
        if not isinstance(message, ReadTsReply) or message.nonce != self.nonce:
            return None
        if message.signature.signer != sender:
            return None
        statement = read_ts_reply_statement(message.cert, message.nonce)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        if not self.config.verifier.certificate_valid(message.cert):
            return None
        return message

    # -- phase 2: PREPARE ------------------------------------------------------

    def _begin_prepare(self, p_max: PrepareCertificate) -> list[Send]:
        self._phase = 2
        self._p_max = p_max
        self._target_ts = p_max.ts.succ(self.client_id)
        justify = self._justify_cert()
        request = self._make_prepare_request(p_max, self._target_ts, justify)
        return self._broadcast(request, self._validate_prepare_reply)

    def _justify_cert(self) -> Optional[WriteCertificate]:
        """Hook for the §7 strong variant; the base protocol sends none."""
        return None

    def _make_prepare_request(
        self,
        prev: PrepareCertificate,
        ts: Timestamp,
        justify: Optional[WriteCertificate],
    ) -> PrepareRequest:
        statement = prepare_request_statement(
            prev, ts, self.value_hash, self.prev_write_cert, justify
        )
        return PrepareRequest(
            prev_cert=prev,
            ts=ts,
            value_hash=self.value_hash,
            write_cert=self.prev_write_cert,
            justify_cert=justify,
            signature=self._sign(statement),
        )

    def _validate_prepare_reply(
        self, sender: str, message: Message
    ) -> Optional[Signature]:
        if not isinstance(message, PrepareReply):
            return None
        if message.ts != self._target_ts or message.value_hash != self.value_hash:
            return None
        if message.signature.signer != sender:
            return None
        statement = prepare_reply_statement(message.ts, message.value_hash)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature

    # -- phase 3: WRITE ----------------------------------------------------------

    def _begin_write(self, prepare_cert: PrepareCertificate) -> list[Send]:
        self._phase = 3
        self._prepare_cert = prepare_cert
        statement = write_request_statement(self.value, prepare_cert)
        request = WriteRequest(
            value=self.value,
            prepare_cert=prepare_cert,
            signature=self._sign(statement),
        )
        return self._broadcast(request, self._validate_write_reply)

    def _validate_write_reply(
        self, sender: str, message: Message
    ) -> Optional[Signature]:
        if not isinstance(message, WriteReply) or message.ts != self._target_ts:
            return None
        if message.signature.signer != sender:
            return None
        statement = write_reply_statement(message.ts)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature

    # -- transitions ----------------------------------------------------------

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if not self._collector.have_quorum:
            return []
        if self._phase == 1:
            replies: list[ReadTsReply] = list(self._collector.replies.values())
            p_max = max((r.cert for r in replies), key=lambda c: c.ts)
            return self._begin_prepare(p_max)
        if self._phase == 2:
            signatures = tuple(self._collector.replies.values())
            assert self._target_ts is not None
            prepare_cert = PrepareCertificate(
                ts=self._target_ts,
                value_hash=self.value_hash,
                signatures=signatures,
            )
            return self._begin_write(prepare_cert)
        if self._phase == 3:
            signatures = tuple(self._collector.replies.values())
            assert self._target_ts is not None
            self.new_write_cert = WriteCertificate(
                ts=self._target_ts, signatures=signatures
            )
            return self._finish(self._target_ts)
        raise AssertionError(f"unexpected phase {self._phase}")


class ReadOperation(Operation):
    """One-phase read with the §3.2.2 write-back second phase when needed."""

    op_name = "read"

    def __init__(
        self,
        client_id: str,
        config: SystemConfig,
        nonce: bytes,
        *,
        hash_tie_break: bool = False,
        write_cert: Optional[WriteCertificate] = None,
    ) -> None:
        super().__init__(client_id, config)
        self.nonce = nonce
        #: §6.3: the optimized protocol can yield equal timestamps with
        #: different values; ties are broken by the larger hash.
        self.hash_tie_break = hash_tie_break
        #: §3.3.1 piggyback payload (the reader's last write certificate).
        self.piggyback_cert = write_cert
        self._phase = 0
        self._best: Optional[ReadReply] = None

    def start(self) -> list[Send]:
        self._phase = 1
        piggyback = (
            self.piggyback_cert if self.config.piggyback_write_certs else None
        )
        return self._broadcast(
            ReadRequest(nonce=self.nonce, write_cert=piggyback),
            self._validate_read_reply,
        )

    def _validate_read_reply(self, sender: str, message: Message) -> Optional[ReadReply]:
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
        # The certificate vouches for h(data): a Byzantine replica cannot
        # return a fabricated value under a genuine certificate.
        if message.cert.h != hash_value(message.value):
            return None
        return message

    def _rank(self, reply: ReadReply) -> tuple:
        if self.hash_tie_break:
            return (reply.cert.ts, reply.cert.h)
        return (reply.cert.ts,)

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if self._phase == 1:
            if not self._collector.have_quorum:
                return []
            replies: list[ReadReply] = list(self._collector.replies.values())
            best = max(replies, key=self._rank)
            self._best = best
            best_key = (best.cert.ts, best.cert.h)
            up_to_date = frozenset(
                sender
                for sender, r in self._collector.replies.items()
                if (r.cert.ts, r.cert.h) == best_key
            )
            if len(up_to_date) >= self.config.quorum_size:
                return self._finish(best.value)
            return self._begin_write_back(best, up_to_date)
        if self._phase == 2:
            if self._collector.have_quorum:
                assert self._best is not None
                return self._finish(self._best.value)
            return []
        raise AssertionError(f"unexpected phase {self._phase}")

    def _begin_write_back(
        self, best: ReadReply, up_to_date: frozenset[str]
    ) -> list[Send]:
        """§3.2.2 phase 2: push the winning value to replicas that are behind.

        Identical to phase 3 of writing, "except that the client needs to
        send only to replicas that are behind, and it must wait only for
        enough responses to ensure that 2f + 1 replicas now have the new
        information".  The up-to-date replicas are credited into the round,
        so both the quorum predicate and the retransmit set count only the
        laggards.
        """
        self._phase = 2
        statement = write_request_statement(best.value, best.cert)
        request = WriteRequest(
            value=best.value,
            prepare_cert=best.cert,
            signature=self._sign(statement),
        )
        targets = tuple(
            r for r in self.config.quorums.replica_ids if r not in up_to_date
        )
        return self._broadcast(
            request,
            self._validate_write_back_reply,
            targets,
            prefill={r: None for r in up_to_date},
        )

    def _validate_write_back_reply(
        self, sender: str, message: Message
    ) -> Optional[Signature]:
        assert self._best is not None
        if not isinstance(message, WriteReply) or message.ts != self._best.cert.ts:
            return None
        if message.signature.signer != sender:
            return None
        statement = write_reply_statement(message.ts)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature
