"""The original BQS replicated register (Malkhi & Reiter [9], as presented in
§3.1), with the Phalanx write-back extension [10] for read atomicity.

This is the paper's "does not handle Byzantine clients" baseline:

* 3f + 1 replicas, quorums of 2f + 1, one-phase reads (plus optional
  write-back), two-phase writes.
* A replica stores ``(data, ts, writer-signature)``; the writer's signature
  binds the value to the timestamp, so a Byzantine *replica* cannot
  fabricate values — but a Byzantine *client* can: write different values
  under the same timestamp at different replicas (breaking atomicity), pick
  an enormous timestamp (exhausting the timestamp space), or do partial
  writes.  Experiments E7/E9 demonstrate exactly these failures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines.messages import (
    BqsReadReply,
    BqsReadRequest,
    BqsReadTsReply,
    BqsReadTsRequest,
    BqsWriteReply,
    BqsWriteRequest,
)
from repro.baselines.statements import (
    bqs_read_reply_statement,
    bqs_read_ts_reply_statement,
    bqs_write_reply_statement,
    bqs_write_statement,
)
from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.operations import Operation, Send
from repro.core.timestamp import ZERO_TS, Timestamp
from repro.crypto.hashing import hash_value
from repro.crypto.nonces import NonceSource
from repro.crypto.signatures import Signature
from repro.errors import ProtocolError

__all__ = ["BqsReplica", "BqsClient", "BqsWriteOperation", "BqsReadOperation"]


@dataclass
class BqsReplicaStats:
    handled: Counter = field(default_factory=Counter)
    discards: Counter = field(default_factory=Counter)
    writes_installed: int = 0


class BqsReplica:
    """BQS replica: stores the highest-timestamped writer-signed value."""

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.data: Any = None
        self.ts: Timestamp = ZERO_TS
        self.writer_sig: Optional[Signature] = None
        self.stats = BqsReplicaStats()

    def _sign(self, statement: bytes) -> Signature:
        return self.config.scheme.sign(self.node_id, statement)

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        self.stats.handled[message.KIND] += 1
        if isinstance(message, BqsReadTsRequest):
            return BqsReadTsReply(
                ts=self.ts,
                nonce=message.nonce,
                signature=self._sign(
                    bqs_read_ts_reply_statement(self.ts, message.nonce)
                ),
            )
        if isinstance(message, BqsWriteRequest):
            return self._handle_write(message)
        if isinstance(message, BqsReadRequest):
            return BqsReadReply(
                value=self.data,
                ts=self.ts,
                writer_sig=self.writer_sig,
                nonce=message.nonce,
                signature=self._sign(
                    bqs_read_reply_statement(self.data, self.ts, message.nonce)
                ),
            )
        self.stats.discards["unknown-kind"] += 1
        return None

    def _handle_write(self, message: BqsWriteRequest) -> Optional[BqsWriteReply]:
        writer = message.writer_sig.signer
        if not self.config.is_authorized_writer(writer):
            self.stats.discards["unauthorized"] += 1
            return None
        statement = bqs_write_statement(message.ts, hash_value(message.value))
        if not self.config.verifier.verify(message.writer_sig, statement):
            self.stats.discards["bad-signature"] += 1
            return None
        # NOTE the vulnerability this baseline exists to demonstrate: the
        # replica checks only that the timestamp is fresh *locally*.  Nothing
        # prevents a Byzantine client from signing two different values with
        # the same timestamp and sending one to each half of the replica
        # group, nor from jumping the timestamp arbitrarily far ahead.
        if message.ts > self.ts:
            self.data = message.value
            self.ts = message.ts
            self.writer_sig = message.writer_sig
            self.stats.writes_installed += 1
        return BqsWriteReply(
            ts=message.ts,
            signature=self._sign(bqs_write_reply_statement(message.ts)),
        )


class BqsWriteOperation(Operation):
    """Two-phase write: read the highest timestamp, then store."""

    op_name = "write"

    def __init__(
        self, client_id: str, config: SystemConfig, value: Any, nonce: bytes
    ) -> None:
        super().__init__(client_id, config)
        self.value = value
        self.nonce = nonce
        self._phase = 0
        self._target_ts: Optional[Timestamp] = None

    def start(self) -> list[Send]:
        self._phase = 1
        return self._broadcast(
            BqsReadTsRequest(nonce=self.nonce), self._validate_read_ts
        )

    def _validate_read_ts(self, sender: str, message: Message) -> Optional[Timestamp]:
        if not isinstance(message, BqsReadTsReply) or message.nonce != self.nonce:
            return None
        if message.signature.signer != sender:
            return None
        statement = bqs_read_ts_reply_statement(message.ts, message.nonce)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.ts

    def _validate_write_reply(
        self, sender: str, message: Message
    ) -> Optional[Signature]:
        if not isinstance(message, BqsWriteReply) or message.ts != self._target_ts:
            return None
        if message.signature.signer != sender:
            return None
        statement = bqs_write_reply_statement(message.ts)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if not self._collector.have_quorum:
            return []
        if self._phase == 1:
            max_ts: Timestamp = max(self._collector.replies.values())
            self._target_ts = max_ts.succ(self.client_id)
            self._phase = 2
            statement = bqs_write_statement(self._target_ts, hash_value(self.value))
            request = BqsWriteRequest(
                value=self.value,
                ts=self._target_ts,
                writer_sig=self._sign(statement),
            )
            return self._broadcast(request, self._validate_write_reply)
        if self._phase == 2:
            return self._finish(self._target_ts)
        raise AssertionError(f"unexpected phase {self._phase}")


class BqsReadOperation(Operation):
    """One-phase read; optional write-back for atomicity (Phalanx [10])."""

    op_name = "read"

    def __init__(
        self,
        client_id: str,
        config: SystemConfig,
        nonce: bytes,
        *,
        write_back: bool = True,
    ) -> None:
        super().__init__(client_id, config)
        self.nonce = nonce
        self.write_back = write_back
        self._phase = 0
        self._best: Optional[BqsReadReply] = None

    def start(self) -> list[Send]:
        self._phase = 1
        return self._broadcast(BqsReadRequest(nonce=self.nonce), self._validate_read)

    def _validate_read(self, sender: str, message: Message) -> Optional[BqsReadReply]:
        if not isinstance(message, BqsReadReply) or message.nonce != self.nonce:
            return None
        if message.signature.signer != sender:
            return None
        statement = bqs_read_reply_statement(message.value, message.ts, message.nonce)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        if message.ts == ZERO_TS:
            return message if message.value is None else None
        if message.writer_sig is None:
            return None
        writer_statement = bqs_write_statement(message.ts, hash_value(message.value))
        if not self.config.verifier.verify(
            message.writer_sig, writer_statement
        ):
            return None
        return message

    def _validate_write_back(self, sender: str, message: Message) -> Optional[Signature]:
        assert self._best is not None
        if not isinstance(message, BqsWriteReply) or message.ts != self._best.ts:
            return None
        if message.signature.signer != sender:
            return None
        statement = bqs_write_reply_statement(message.ts)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if self._phase == 1:
            if not self._collector.have_quorum:
                return []
            replies: list[BqsReadReply] = list(self._collector.replies.values())
            best = max(replies, key=lambda r: r.ts)
            self._best = best
            up_to_date = frozenset(
                sender
                for sender, r in self._collector.replies.items()
                if r.ts == best.ts
            )
            if (
                not self.write_back
                or len(up_to_date) >= self.config.quorum_size
                or best.ts == ZERO_TS
            ):
                return self._finish(best.value)
            # Write back the highest value (re-signed by its writer already);
            # the up-to-date replicas are credited into the round so quorum
            # counting and retransmission cover only the laggards.
            self._phase = 2
            assert best.writer_sig is not None
            request = BqsWriteRequest(
                value=best.value, ts=best.ts, writer_sig=best.writer_sig
            )
            targets = tuple(
                r for r in self.config.quorums.replica_ids if r not in up_to_date
            )
            return self._broadcast(
                request,
                self._validate_write_back,
                targets,
                prefill={r: None for r in up_to_date},
            )
        if self._phase == 2:
            if self._collector.have_quorum:
                assert self._best is not None
                return self._finish(self._best.value)
            return []
        raise AssertionError(f"unexpected phase {self._phase}")


class BqsClient:
    """Client front-end with the same driving interface as BftBcClient."""

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        *,
        write_back: bool = True,
        instrumentation=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.write_back = write_back
        self.instrumentation = instrumentation
        credential = config.registry.register(node_id)
        self._nonces = NonceSource(node_id, secret=credential.secret)
        self.op: Optional[Operation] = None
        self.completed_ops = 0

    def begin_write(self, value: Any) -> list[Send]:
        self._check_idle()
        self.op = BqsWriteOperation(
            self.node_id, self.config, value, self._nonces.next()
        )
        self.op.instrument(self.instrumentation)
        return self.op.start()

    def begin_read(self) -> list[Send]:
        self._check_idle()
        self.op = BqsReadOperation(
            self.node_id, self.config, self._nonces.next(), write_back=self.write_back
        )
        self.op.instrument(self.instrumentation)
        return self.op.start()

    def _check_idle(self) -> None:
        if self.op is not None and not self.op.done:
            raise ProtocolError(f"client {self.node_id} already busy")

    def deliver(self, sender: str, message: Message) -> list[Send]:
        if self.op is None or self.op.done:
            return []
        sends = self.op.on_message(sender, message)
        if self.op.done:
            self.completed_ops += 1
        return sends

    def retransmit(self) -> list[Send]:
        if self.op is None or self.op.done:
            return []
        return self.op.on_retransmit()

    @property
    def busy(self) -> bool:
        return self.op is not None and not self.op.done

    @property
    def last_result(self) -> Any:
        return None if self.op is None else self.op.result
