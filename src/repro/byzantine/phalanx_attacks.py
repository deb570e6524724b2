"""Byzantine-client attacks against the Phalanx baseline.

Phalanx's echo certificates stop equivocation (one hash per (client,
timestamp)), but nothing ties a proposed timestamp to any completed state:
the replica echoes whatever fresh (ts, h) the client proposes.  A Byzantine
client can therefore burn the timestamp space in a single round — the gap
the "non-skipping timestamps" line of work (Bazzi & Ding [2], Cachin &
Tessaro [3], §8) was created to close, and which BFT-BC's
successor-of-a-certificate rule closes structurally.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.messages import (
    PhxEchoReply,
    PhxEchoRequest,
    PhxWriteReply,
    PhxWriteRequest,
)
from repro.baselines.statements import (
    phx_echo_request_statement,
    phx_echo_statement,
    phx_write_request_statement,
)
from repro.core.messages import Message
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value
from repro.crypto.nonces import NonceSource

__all__ = ["PhalanxTimestampExhaustionAttack", "PhalanxEquivocationAttack"]

ATTEMPT_TIMEOUT = 2.0


class _PhalanxActor:
    """Raw actor for a Phalanx :class:`~repro.sim.runner.Cluster`."""

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


class PhalanxTimestampExhaustionAttack(_PhalanxActor):
    """Echo-then-write a value at an enormous timestamp.

    Phalanx replicas echo any fresh (ts, hash) pair, so the proof for
    ``ts = 10^15`` assembles normally and the write installs everywhere —
    the timestamp space is burned in one round trip.
    """

    HUGE = 10**15

    def __init__(self, cluster, name: str) -> None:
        super().__init__(cluster, name)
        self.value = (self.node_id, 1, "huge")
        self.ts = Timestamp(val=self.HUGE, client_id=self.node_id)
        self.echo_sigs: dict[str, Any] = {}
        self.write_acks: set[str] = set()
        self._echo_request: Optional[PhxEchoRequest] = None
        self._write_request: Optional[PhxWriteRequest] = None

    def start(self) -> None:
        vh = hash_value(self.value)
        self._echo_request = PhxEchoRequest(
            ts=self.ts,
            value_hash=vh,
            signature=self.sign(phx_echo_request_statement(self.ts, vh)),
        )
        self._broadcast(self._echo_request)
        self.scheduler.call_later(ATTEMPT_TIMEOUT, self._finish)
        self.scheduler.call_later(0.05, self._retransmit)

    def _retransmit(self) -> None:
        if self.done:
            return
        if self._write_request is None and self._echo_request is not None:
            self._broadcast(self._echo_request)
        elif self._write_request is not None:
            for dest in self.config.quorums.replica_ids:
                if dest not in self.write_acks:
                    self.network.send(self.node_id, dest, self._write_request)
        self.scheduler.call_later(0.05, self._retransmit)

    def handle_raw(self, src: str, message: Message) -> None:
        if self.done:
            return
        if isinstance(message, PhxEchoReply) and message.ts == self.ts:
            statement = phx_echo_statement(message.ts, message.value_hash)
            if message.signature.signer == src and self.config.scheme.verify_statement(
                message.signature, statement
            ):
                self.echo_sigs[src] = message.signature
                if (
                    len(self.echo_sigs) >= self.config.quorum_size
                    and self._write_request is None
                ):
                    self._write_request = PhxWriteRequest(
                        value=self.value,
                        ts=self.ts,
                        echo_sigs=tuple(self.echo_sigs.values()),
                        signature=self.sign(
                            phx_write_request_statement(self.value, self.ts)
                        ),
                    )
                    self._broadcast(self._write_request)
        elif isinstance(message, PhxWriteReply) and message.ts == self.ts:
            self.write_acks.add(src)
            if len(self.write_acks) >= self.config.quorum_size:
                self._finish()

    @property
    def succeeded(self) -> bool:
        return len(self.write_acks) >= self.config.quorum_size


class PhalanxEquivocationAttack(_PhalanxActor):
    """Try to obtain echo proofs for two values at one timestamp.

    This is the attack Phalanx *does* stop: each correct replica's echo log
    admits one hash per (client, ts), and quorums of 3f+1 out of 4f+1
    intersect in 2f+1 > 2f replicas, so the two proofs cannot both exist.
    """

    def __init__(self, cluster, name: str) -> None:
        super().__init__(cluster, name)
        self.ts = Timestamp(val=1, client_id=self.node_id)
        self.values = {
            "A": (self.node_id, 1, "A"),
            "B": (self.node_id, 1, "B"),
        }
        self.sigs: dict[str, dict[str, Any]] = {"A": {}, "B": {}}
        self.proofs: set[str] = set()
        self._requests: dict[str, PhxEchoRequest] = {}

    def start(self) -> None:
        replicas = self.config.quorums.replica_ids
        half = len(replicas) // 2 + 1
        for tag, value in self.values.items():
            vh = hash_value(value)
            self._requests[tag] = PhxEchoRequest(
                ts=self.ts,
                value_hash=vh,
                signature=self.sign(phx_echo_request_statement(self.ts, vh)),
            )
        for dest in replicas[:half]:
            self.network.send(self.node_id, dest, self._requests["A"])
        for dest in replicas[half:]:
            self.network.send(self.node_id, dest, self._requests["B"])
        self.scheduler.call_later(0.05, self._cross_send)
        self.scheduler.call_later(ATTEMPT_TIMEOUT, self._finish)

    def _cross_send(self) -> None:
        if self.done:
            return
        for tag, request in self._requests.items():
            for dest in self.config.quorums.replica_ids:
                if dest not in self.sigs[tag]:
                    self.network.send(self.node_id, dest, request)
        self.scheduler.call_later(0.05, self._cross_send)

    def handle_raw(self, src: str, message: Message) -> None:
        if self.done or not isinstance(message, PhxEchoReply):
            return
        if message.ts != self.ts or message.signature.signer != src:
            return
        for tag, value in self.values.items():
            if message.value_hash == hash_value(value):
                statement = phx_echo_statement(message.ts, message.value_hash)
                if self.config.scheme.verify_statement(message.signature, statement):
                    self.sigs[tag][src] = message.signature
                    if len(self.sigs[tag]) >= self.config.quorum_size:
                        self.proofs.add(tag)
        if len(self.proofs) == 2:
            self._finish()

    @property
    def proofs_obtained(self) -> int:
        return len(self.proofs)
