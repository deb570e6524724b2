"""The Phalanx Byzantine-client register (Malkhi & Reiter [10]).

This is the prior protocol the paper improves on for Byzantine clients:

* ``n = 4f + 1`` replicas, quorums of ``3f + 1``.
* Writes take three phases: READ-TS, ECHO (replicas vouch for one
  ``(ts, h(value))`` per client-timestamp, preventing equivocation), then
  WRITE justified by a quorum of echo signatures.
* Reads are masking-quorum reads: replies carry no transferable proof, so a
  value is only trusted when ``f + 1`` replicas report the identical
  ``(ts, value)``.  Under an incomplete or concurrent write no candidate may
  qualify, in which case the read returns :data:`NULL_READ` — exactly the
  weakness §8 describes ("read operations could return a null value if there
  was an incomplete or a concurrent write").

Use :meth:`~repro.core.quorum.QuorumSystem.phalanx` for the quorum system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines.messages import (
    PhxEchoReply,
    PhxEchoRequest,
    PhxReadReply,
    PhxReadRequest,
    PhxReadTsReply,
    PhxReadTsRequest,
    PhxWriteReply,
    PhxWriteRequest,
)
from repro.baselines.statements import (
    phx_echo_request_statement,
    phx_echo_statement,
    phx_read_reply_statement,
    phx_read_ts_reply_statement,
    phx_write_reply_statement,
    phx_write_request_statement,
)
from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.operations import Operation, Send
from repro.core.timestamp import ZERO_TS, Timestamp
from repro.crypto.hashing import hash_value
from repro.crypto.nonces import NonceSource
from repro.crypto.signatures import Signature
from repro.errors import ProtocolError

__all__ = [
    "NULL_READ",
    "PhalanxReplica",
    "PhalanxClient",
    "PhalanxWriteOperation",
    "PhalanxReadOperation",
]

#: Sentinel returned by a Phalanx read that could not identify a value.
NULL_READ = "<phalanx-null-read>"


@dataclass
class PhalanxReplicaStats:
    handled: Counter = field(default_factory=Counter)
    discards: Counter = field(default_factory=Counter)
    writes_installed: int = 0
    echoes_granted: int = 0
    echoes_refused: int = 0


class PhalanxReplica:
    """Phalanx replica: echo log + highest echoed-and-proven value."""

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.data: Any = None
        self.ts: Timestamp = ZERO_TS
        #: (client, ts) -> value hash already echoed (anti-equivocation).
        self.echo_log: dict[tuple[str, tuple], bytes] = {}
        self.stats = PhalanxReplicaStats()

    def _sign(self, statement: bytes) -> Signature:
        return self.config.scheme.sign(self.node_id, statement)

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        self.stats.handled[message.KIND] += 1
        if isinstance(message, PhxReadTsRequest):
            return PhxReadTsReply(
                ts=self.ts,
                nonce=message.nonce,
                signature=self._sign(
                    phx_read_ts_reply_statement(self.ts, message.nonce)
                ),
            )
        if isinstance(message, PhxEchoRequest):
            return self._handle_echo(message)
        if isinstance(message, PhxWriteRequest):
            return self._handle_write(message)
        if isinstance(message, PhxReadRequest):
            return PhxReadReply(
                value=self.data,
                ts=self.ts,
                nonce=message.nonce,
                signature=self._sign(
                    phx_read_reply_statement(self.data, self.ts, message.nonce)
                ),
            )
        self.stats.discards["unknown-kind"] += 1
        return None

    def _handle_echo(self, message: PhxEchoRequest) -> Optional[PhxEchoReply]:
        client = message.signature.signer
        if not self.config.is_authorized_writer(client):
            self.stats.discards["unauthorized"] += 1
            return None
        statement = phx_echo_request_statement(message.ts, message.value_hash)
        if not self.config.verifier.verify(message.signature, statement):
            self.stats.discards["bad-signature"] += 1
            return None
        key = (client, message.ts.to_wire())
        recorded = self.echo_log.get(key)
        if recorded is not None and recorded != message.value_hash:
            # Equivocation attempt: refuse to vouch for a second value under
            # the same (client, timestamp).
            self.stats.echoes_refused += 1
            self.stats.discards["echo-conflict"] += 1
            return None
        self.echo_log[key] = message.value_hash
        self.stats.echoes_granted += 1
        return PhxEchoReply(
            ts=message.ts,
            value_hash=message.value_hash,
            signature=self._sign(phx_echo_statement(message.ts, message.value_hash)),
        )

    def _handle_write(self, message: PhxWriteRequest) -> Optional[PhxWriteReply]:
        client = message.signature.signer
        if not self.config.is_authorized_writer(client):
            self.stats.discards["unauthorized"] += 1
            return None
        statement = phx_write_request_statement(message.value, message.ts)
        if not self.config.verifier.verify(message.signature, statement):
            self.stats.discards["bad-signature"] += 1
            return None
        value_hash = hash_value(message.value)
        echo_statement = phx_echo_statement(message.ts, value_hash)
        signers = set()
        for sig in message.echo_sigs:
            if not self.config.quorums.is_replica(sig.signer):
                continue
            if not self.config.verifier.verify(sig, echo_statement):
                continue
            signers.add(sig.signer)
        if len(signers) < self.config.quorum_size:
            self.stats.discards["bad-echo-proof"] += 1
            return None
        if message.ts > self.ts:
            self.data = message.value
            self.ts = message.ts
            self.stats.writes_installed += 1
        return PhxWriteReply(
            ts=message.ts,
            signature=self._sign(phx_write_reply_statement(message.ts)),
        )


class PhalanxWriteOperation(Operation):
    """Three-phase Phalanx write: READ-TS, ECHO, WRITE."""

    op_name = "write"

    def __init__(
        self, client_id: str, config: SystemConfig, value: Any, nonce: bytes
    ) -> None:
        super().__init__(client_id, config)
        self.value = value
        self.value_hash = hash_value(value)
        self.nonce = nonce
        self._phase = 0
        self._target_ts: Optional[Timestamp] = None

    def start(self) -> list[Send]:
        self._phase = 1
        return self._broadcast(
            PhxReadTsRequest(nonce=self.nonce), self._validate_read_ts
        )

    def _validate_read_ts(self, sender: str, message: Message) -> Optional[Timestamp]:
        if not isinstance(message, PhxReadTsReply) or message.nonce != self.nonce:
            return None
        if message.signature.signer != sender:
            return None
        statement = phx_read_ts_reply_statement(message.ts, message.nonce)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.ts

    def _validate_echo(self, sender: str, message: Message) -> Optional[Signature]:
        if not isinstance(message, PhxEchoReply):
            return None
        if message.ts != self._target_ts or message.value_hash != self.value_hash:
            return None
        if message.signature.signer != sender:
            return None
        statement = phx_echo_statement(message.ts, message.value_hash)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message.signature

    def _validate_write_reply(
        self, sender: str, message: Message
    ) -> Optional[Signature]:
        if not isinstance(message, PhxWriteReply) or message.ts != self._target_ts:
            return None
        if message.signature.signer != sender:
            return None
        statement = phx_write_reply_statement(message.ts)
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
            statement = phx_echo_request_statement(self._target_ts, self.value_hash)
            request = PhxEchoRequest(
                ts=self._target_ts,
                value_hash=self.value_hash,
                signature=self._sign(statement),
            )
            return self._broadcast(request, self._validate_echo)
        if self._phase == 2:
            echo_sigs = tuple(self._collector.replies.values())
            self._phase = 3
            assert self._target_ts is not None
            statement = phx_write_request_statement(self.value, self._target_ts)
            request = PhxWriteRequest(
                value=self.value,
                ts=self._target_ts,
                echo_sigs=echo_sigs,
                signature=self._sign(statement),
            )
            return self._broadcast(request, self._validate_write_reply)
        if self._phase == 3:
            return self._finish(self._target_ts)
        raise AssertionError(f"unexpected phase {self._phase}")


class PhalanxReadOperation(Operation):
    """Masking-quorum read: needs f+1 matching replies; may return NULL_READ."""

    op_name = "read"

    def __init__(self, client_id: str, config: SystemConfig, nonce: bytes) -> None:
        super().__init__(client_id, config)
        self.nonce = nonce
        self.returned_null = False
        self._phase = 0

    def start(self) -> list[Send]:
        self._phase = 1
        return self._broadcast(PhxReadRequest(nonce=self.nonce), self._validate_read)

    def _validate_read(self, sender: str, message: Message) -> Optional[PhxReadReply]:
        if not isinstance(message, PhxReadRequest) and not isinstance(
            message, PhxReadReply
        ):
            return None
        if not isinstance(message, PhxReadReply) or message.nonce != self.nonce:
            return None
        if message.signature.signer != sender:
            return None
        statement = phx_read_reply_statement(message.value, message.ts, message.nonce)
        if not self.config.verifier.verify(message.signature, statement):
            return None
        return message

    def _advance(self) -> list[Send]:
        assert self._collector is not None
        if not self._collector.have_quorum:
            return []
        replies: list[PhxReadReply] = list(self._collector.replies.values())
        groups: Counter = Counter()
        values: dict[tuple, Any] = {}
        for reply in replies:
            key = (reply.ts.to_wire(), hash_value(reply.value))
            groups[key] += 1
            values[key] = reply.value
        candidates = [
            key for key, count in groups.items() if count >= self.config.f + 1
        ]
        if not candidates:
            self.returned_null = True
            return self._finish(NULL_READ)
        best = max(candidates, key=lambda key: Timestamp.from_wire(key[0]))
        return self._finish(values[best])


class PhalanxClient:
    """Client front-end with the same driving interface as BftBcClient."""

    def __init__(
        self, node_id: str, config: SystemConfig, *, instrumentation=None
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.instrumentation = instrumentation
        credential = config.registry.register(node_id)
        self._nonces = NonceSource(node_id, secret=credential.secret)
        self.op: Optional[Operation] = None
        self.completed_ops = 0
        self.null_reads = 0

    def begin_write(self, value: Any) -> list[Send]:
        self._check_idle()
        self.op = PhalanxWriteOperation(
            self.node_id, self.config, value, self._nonces.next()
        )
        self.op.instrument(self.instrumentation)
        return self.op.start()

    def begin_read(self) -> list[Send]:
        self._check_idle()
        self.op = PhalanxReadOperation(self.node_id, self.config, self._nonces.next())
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
            if isinstance(self.op, PhalanxReadOperation) and self.op.returned_null:
                self.null_reads += 1
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
