"""Byzantine-client attacks against the BQS baseline.

These demonstrate why the paper's protocol exists: the same misbehaviours
that BFT-BC provably neutralises *succeed* against the original BQS register.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.messages import (
    BqsReadTsReply,
    BqsReadTsRequest,
    BqsWriteReply,
    BqsWriteRequest,
)
from repro.baselines.statements import (
    bqs_read_ts_reply_statement,
    bqs_write_statement,
)
from repro.core.messages import Message
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value
from repro.crypto.nonces import NonceSource

__all__ = ["BqsEquivocationAttack", "BqsTimestampExhaustionAttack"]

ATTEMPT_TIMEOUT = 2.0


class _BqsActor:
    """Raw actor for a BQS :class:`~repro.sim.runner.Cluster`."""

    def __init__(self, cluster, name: str) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self.network = cluster.network
        self.scheduler = cluster.scheduler
        self.node_id = f"client:{name}"
        credential = self.config.registry.register(self.node_id)
        self.nonces = NonceSource(self.node_id, secret=credential.secret)
        self.network.register(self.node_id, self.handle_raw)
        self.done = False
        cluster.add_done_check(lambda: self.done)

    def start(self) -> None:
        raise NotImplementedError

    def handle_raw(self, src: str, message: Message) -> None:
        raise NotImplementedError

    def _broadcast(self, message: Message) -> None:
        for dest in self.config.quorums.replica_ids:
            self.network.send(self.node_id, dest, message)

    def _finish(self) -> None:
        self.done = True

    def sign(self, statement: Any):
        return self.config.scheme.sign_statement(self.node_id, statement)


class BqsEquivocationAttack(_BqsActor):
    """Write value A to half the replicas and value B to the other half,
    both under the same timestamp.  BQS replicas accept both, splitting the
    register's state and breaking atomicity for good readers."""

    def __init__(self, cluster, name: str) -> None:
        super().__init__(cluster, name)
        self.value_a = (self.node_id, 1, "A")
        self.value_b = (self.node_id, 1, "B")
        self.target_ts: Optional[Timestamp] = None
        self.acks_a: set[str] = set()
        self.acks_b: set[str] = set()
        self._nonce: Optional[bytes] = None
        self._ts_replies: dict[str, Timestamp] = {}
        self._request_a: Optional[BqsWriteRequest] = None
        self._request_b: Optional[BqsWriteRequest] = None

    def start(self) -> None:
        self._nonce = self.nonces.next()
        self._broadcast(BqsReadTsRequest(nonce=self._nonce))
        self.scheduler.call_later(ATTEMPT_TIMEOUT, self._finish)

    def handle_raw(self, src: str, message: Message) -> None:
        if self.done:
            return
        if isinstance(message, BqsReadTsReply):
            self._on_read_ts(src, message)
        elif isinstance(message, BqsWriteReply):
            self._on_write_reply(src, message)

    def _on_read_ts(self, src: str, message: BqsReadTsReply) -> None:
        if self.target_ts is not None or message.nonce != self._nonce:
            return
        statement = bqs_read_ts_reply_statement(message.ts, message.nonce)
        if not self.config.scheme.verify_statement(message.signature, statement):
            return
        self._ts_replies[src] = message.ts
        if len(self._ts_replies) >= self.config.quorum_size:
            max_ts = max(self._ts_replies.values())
            self.target_ts = max_ts.succ(self.node_id)
            self._split_write()

    def _split_write(self) -> None:
        assert self.target_ts is not None
        self._request_a = BqsWriteRequest(
            value=self.value_a,
            ts=self.target_ts,
            writer_sig=self.sign(
                bqs_write_statement(self.target_ts, hash_value(self.value_a))
            ),
        )
        self._request_b = BqsWriteRequest(
            value=self.value_b,
            ts=self.target_ts,
            writer_sig=self.sign(
                bqs_write_statement(self.target_ts, hash_value(self.value_b))
            ),
        )
        self._send_split()

    def _send_split(self) -> None:
        if self.done:
            return
        replicas = self.config.quorums.replica_ids
        half = len(replicas) // 2 + 1
        for dest in replicas[:half]:
            if dest not in self.acks_a:
                self.network.send(self.node_id, dest, self._request_a)
        for dest in replicas[half:]:
            if dest not in self.acks_b:
                self.network.send(self.node_id, dest, self._request_b)
        if not self._complete():
            self.scheduler.call_later(0.05, self._send_split)

    def _complete(self) -> bool:
        replicas = self.config.quorums.replica_ids
        half = len(replicas) // 2 + 1
        done = len(self.acks_a) >= len(replicas[:half]) and len(self.acks_b) >= len(
            replicas[half:]
        )
        if done and not self.done:
            self._finish()
        return done

    def _on_write_reply(self, src: str, message: BqsWriteReply) -> None:
        if message.ts != self.target_ts:
            return
        replicas = self.config.quorums.replica_ids
        half = len(replicas) // 2 + 1
        if src in replicas[:half]:
            self.acks_a.add(src)
        else:
            self.acks_b.add(src)
        self._complete()


class BqsTimestampExhaustionAttack(_BqsActor):
    """Write with an enormous timestamp.  BQS replicas accept it, burning
    the timestamp space for everyone (issue 3 of §3.2)."""

    HUGE = 10**15

    def __init__(self, cluster, name: str) -> None:
        super().__init__(cluster, name)
        self.acks: set[str] = set()
        self.value = (self.node_id, 1, "huge")
        self._request: Optional[BqsWriteRequest] = None

    def start(self) -> None:
        ts = Timestamp(val=self.HUGE, client_id=self.node_id)
        self._request = BqsWriteRequest(
            value=self.value,
            ts=ts,
            writer_sig=self.sign(bqs_write_statement(ts, hash_value(self.value))),
        )
        self._send()
        self.scheduler.call_later(ATTEMPT_TIMEOUT, self._finish)

    def _send(self) -> None:
        if self.done:
            return
        assert self._request is not None
        for dest in self.config.quorums.replica_ids:
            if dest not in self.acks:
                self.network.send(self.node_id, dest, self._request)
        if len(self.acks) < self.config.quorum_size:
            self.scheduler.call_later(0.05, self._send)

    def handle_raw(self, src: str, message: Message) -> None:
        if isinstance(message, BqsWriteReply) and message.ts.val == self.HUGE:
            self.acks.add(src)
            if len(self.acks) >= self.config.quorum_size and not self.done:
                self._finish()

    @property
    def succeeded(self) -> bool:
        return len(self.acks) >= self.config.quorum_size
