"""Direct-drive helpers: run protocol steps against replicas without a
network, giving tests precise control over each message."""

from __future__ import annotations

from typing import Any, Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    PrepareReply,
    PrepareRequest,
    ReadRequest,
    ReadTsRequest,
    WriteReply,
    WriteRequest,
)
from repro.core.replica import BftBcReplica
from repro.core.statements import (
    prepare_request_statement,
    write_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value


class ProtocolKit:
    """Crafts signed client requests and drives replicas directly."""

    def __init__(self, config: SystemConfig, client: str = "client:alice") -> None:
        self.config = config
        self.client = client
        config.registry.register(client)
        self._nonce_counter = 0

    def nonce(self) -> bytes:
        self._nonce_counter += 1
        return self._nonce_counter.to_bytes(16, "big")

    # -- request crafting ---------------------------------------------------

    def prepare_request(
        self,
        prev_cert: PrepareCertificate,
        ts: Timestamp,
        value: Any,
        write_cert: Optional[WriteCertificate] = None,
        justify_cert: Optional[WriteCertificate] = None,
        *,
        value_hash: Optional[bytes] = None,
    ) -> PrepareRequest:
        vh = value_hash if value_hash is not None else hash_value(value)
        statement = prepare_request_statement(
            prev_cert,
            ts,
            vh,
            write_cert,
            justify_cert,
        )
        return PrepareRequest(
            prev_cert=prev_cert,
            ts=ts,
            value_hash=vh,
            write_cert=write_cert,
            justify_cert=justify_cert,
            signature=self.config.scheme.sign(self.client, statement),
        )

    def write_request(self, value: Any, cert: PrepareCertificate) -> WriteRequest:
        statement = write_request_statement(value, cert)
        return WriteRequest(
            value=value,
            prepare_cert=cert,
            signature=self.config.scheme.sign(self.client, statement),
        )

    # -- direct protocol drives -----------------------------------------------

    def read_ts(self, replicas: list[BftBcReplica]) -> PrepareCertificate:
        """Phase 1 against every replica; returns Pmax."""
        certs = []
        for replica in replicas:
            reply = replica.handle(self.client, ReadTsRequest(nonce=self.nonce()))
            assert reply is not None
            certs.append(reply.cert)
        return max(certs, key=lambda c: c.ts)

    def collect_prepare(
        self, replicas: list[BftBcReplica], request: PrepareRequest
    ) -> Optional[PrepareCertificate]:
        """Phase 2 against the given replicas; None if no quorum approved."""
        sigs = []
        for replica in replicas:
            reply = replica.handle(self.client, request)
            if isinstance(reply, PrepareReply):
                sigs.append(reply.signature)
        if len(sigs) < self.config.quorum_size:
            return None
        return PrepareCertificate(
            ts=request.ts,
            value_hash=request.value_hash,
            signatures=tuple(sigs[: self.config.quorum_size]),
        )

    def collect_write(
        self, replicas: list[BftBcReplica], request: WriteRequest
    ) -> Optional[WriteCertificate]:
        """Phase 3 against the given replicas; None if no quorum replied."""
        sigs = []
        for replica in replicas:
            reply = replica.handle(self.client, request)
            if isinstance(reply, WriteReply):
                sigs.append(reply.signature)
        if len(sigs) < self.config.quorum_size:
            return None
        return WriteCertificate(
            ts=request.prepare_cert.ts,
            signatures=tuple(sigs[: self.config.quorum_size]),
        )

    def full_write(
        self,
        replicas: list[BftBcReplica],
        value: Any,
        write_cert: Optional[WriteCertificate] = None,
        justify_cert: Optional[WriteCertificate] = None,
    ) -> tuple[PrepareCertificate, WriteCertificate]:
        """A complete legitimate three-phase write via direct drive."""
        p_max = self.read_ts(replicas)
        ts = p_max.ts.succ(self.client)
        request = self.prepare_request(
            p_max, ts, value, write_cert=write_cert, justify_cert=justify_cert
        )
        prepare_cert = self.collect_prepare(replicas, request)
        assert prepare_cert is not None, "prepare phase failed"
        wcert = self.collect_write(replicas, self.write_request(value, prepare_cert))
        assert wcert is not None, "write phase failed"
        return prepare_cert, wcert

    def read_value(self, replica: BftBcReplica) -> Any:
        reply = replica.handle(self.client, ReadRequest(nonce=self.nonce()))
        assert reply is not None
        return reply.value


def make_replicas(config: SystemConfig, cls=BftBcReplica) -> list[BftBcReplica]:
    return [cls(rid, config) for rid in config.quorums.replica_ids]


class DirectDriver:
    """Synchronously routes a client's sends to replicas and replies back,
    with optional per-replica drop rules — a zero-latency network for unit
    tests of the operation state machines."""

    def __init__(self, client, replicas: list[BftBcReplica]) -> None:
        self.client = client
        self.replicas = {r.node_id: r for r in replicas}
        self.dropped: set[str] = set()
        self.sent: list = []

    def drop(self, *node_ids: str) -> None:
        """Silence the given replicas (requests to them vanish)."""
        self.dropped.update(node_ids)

    def restore(self, *node_ids: str) -> None:
        self.dropped.difference_update(node_ids)

    def pump(self, sends) -> None:
        """Deliver sends (and all cascading replies) until quiescent."""
        queue = list(sends)
        while queue:
            send = queue.pop(0)
            self.sent.append(send)
            if send.dest in self.dropped:
                continue
            replica = self.replicas.get(send.dest)
            if replica is None:
                continue
            reply = replica.handle(self.client.node_id, send.message)
            if reply is not None:
                queue.extend(self.client.deliver(send.dest, reply))

    def run_write(self, value):
        self.pump(self.client.begin_write(value))
        return self.client.op

    def run_read(self):
        self.pump(self.client.begin_read())
        return self.client.op

    def tick(self) -> None:
        """One retransmission tick."""
        self.pump(self.client.retransmit())
