"""Real asyncio TCP transport for the sans-I/O protocol state machines.

The same replica and client classes that run on the deterministic simulator
run here over real sockets:

* :class:`ReplicaServer` hosts one replica behind a TCP listener.
* :class:`AsyncClient` connects to every replica and exposes
  ``await write(value)`` / ``await read()``, driving the sans-I/O client
  with real timers for retransmission.

The wire format is :mod:`repro.net.envelope`; the client side is one
logical client on its own :class:`~repro.net.mux.MuxEndpoint`, driven by
the shared :func:`~repro.net.mux.drive` loop.  Both ends are
:class:`asyncio.Protocol` callbacks: a server handles every frame of one
socket read inside ``data_received``, with no task or queue in between.
The transport tolerates connection loss: sends to broken connections are
dropped and the protocol's retransmission recovers, matching the §2
fair-loss model.
"""

from __future__ import annotations

import asyncio
import os
from collections import Counter
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.replica import BftBcReplica
from repro.encoding import FrameDecoder
from repro.errors import EncodingError, OperationFailedError, ProtocolError
from repro.net.envelope import decode_envelope, encode_envelope
from repro.net.mux import MuxEndpoint, PipelinedClient, drive
from repro.obs.instrumentation import Instrumentation
from repro.storage import FileLogStore

if TYPE_CHECKING:
    from repro.core.client import BftBcClient
    from repro.core.phases import Send

__all__ = ["ReplicaServer", "AsyncClient", "SharedDecode"]

Envelope = tuple[str, Message, Optional[str]]

#: Quiet interval and overall budget of one repair pull; the next audit
#: tick starts another, so a loss here only costs latency.
REPAIR_RETRANSMIT = 0.5
REPAIR_TIMEOUT = 2.0


class SharedDecode:
    """Decodes each distinct frame once per event-loop turn.

    A client sends one request to every replica, so a worker hosting
    several replicas of a group reads byte-identical frames once per
    hosted replica, usually in the same loop turn.  The servers of one
    :class:`~repro.cluster.deploy.ReplicaGroup` share one table from
    payload bytes to the decoded ``(src, message, dst)``; the first insert
    in a turn arms a ``call_soon`` that empties it, so the table holds at
    most one turn's frames.  Receivers share the frozen message, as the
    simulated network's in-flight table does.  Only successful decodes
    are kept: a frame that fails to parse raises for every receiver, and
    an equivocating client's different bytes are different keys.
    """

    def __init__(self) -> None:
        self._frames: dict[bytes, Envelope] = {}

    def __call__(self, payload: bytes) -> Envelope:
        envelope = self._frames.get(payload)
        if envelope is None:
            envelope = decode_envelope(payload)
            if not self._frames:
                asyncio.get_running_loop().call_soon(self._frames.clear)
            self._frames[payload] = envelope
        return envelope


class _Connection(asyncio.Protocol):
    """One client connection of a :class:`ReplicaServer`."""

    transport: asyncio.Transport

    def __init__(self, server: "ReplicaServer") -> None:
        self._server = server
        self._decoder = FrameDecoder()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._server._connections.add(self.transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._connections.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        try:
            payloads = list(self._decoder.feed(data))
        except EncodingError:
            # Bad magic or an oversized length: drop the connection.
            self.transport.close()
            return
        if payloads:
            self._server._handle_frames(payloads, self.transport)

    # A client that does not read its replies stops being read: the
    # buffered replies bound what its requests can make this server hold.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class ReplicaServer:
    """Hosts one replica state machine behind a TCP listener.

    Servers of one group pass the group's :class:`SharedDecode` as
    ``decode``; a lone server decodes through a table of its own.
    """

    def __init__(
        self,
        replica: BftBcReplica,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        decode: Optional[SharedDecode] = None,
    ) -> None:
        self.replica = replica
        self.host = host
        self.port = port
        self._decode = decode if decode is not None else SharedDecode()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.Transport] = set()
        #: Frames dropped before reaching the replica, by the simulated
        #: network's reason names (``parse-failure``).
        self.dropped_by_reason: Counter[str] = Counter()

    @property
    def instrumentation(self) -> Instrumentation:
        """The hosted replica's observability handle (wall-clock spans)."""
        return self.replica.instrumentation

    @classmethod
    def durable(
        cls,
        node_id: str,
        config: SystemConfig,
        data_dir: Union[str, os.PathLike],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_cls: type[BftBcReplica] = BftBcReplica,
        fsync: str = "always",
        instrumentation: Optional[Instrumentation] = None,
        decode: Optional[SharedDecode] = None,
    ) -> "ReplicaServer":
        """Build a server whose replica journals to ``data_dir``.

        The replica recovers from whatever snapshot + WAL the directory
        already holds, so restarting a server on the same directory resumes
        from the pre-crash Figure-2 state.  An instrumentation handle times
        handlers and store calls on the wall clock.
        """
        store = FileLogStore(data_dir, fsync=fsync)
        replica = replica_cls(
            node_id, config, store=store, instrumentation=instrumentation
        )
        replica.recover()
        return cls(replica, host=host, port=port, decode=decode)

    async def start(self) -> tuple[str, int]:
        """Start listening; returns the bound (host, port)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def audit_tick(
        self, peer_addrs: "Callable[[], dict[str, tuple[str, int]]]"
    ) -> bool:
        """One self-stabilization tick over sockets; True when clean.

        Runs :meth:`~repro.core.replica.BftBcReplica.audit_tick`; while the
        replica is quarantined its repair requests go out on one
        short-lived endpoint registered under the replica's own id (peers
        read from ``peer_addrs()``): the peers' REPAIR-REPLY frames come
        back tagged for it and go through ``replica.handle`` until the
        replica leaves quarantine or the budget runs out — the next tick
        retransmits to unanswered peers, so losses here only cost latency
        (fair-loss, like every other message).  A stopped server (a dead
        process) audits nothing and counts as clean.
        """
        if self._server is None:
            return True
        replica = self.replica
        sends = replica.audit_tick()
        if not replica.quarantined:
            return True

        def deliver(src: str, message: Message) -> list[Send]:
            replica.handle(src, message)
            return []

        endpoint = MuxEndpoint(peer_addrs())
        try:
            await drive(
                endpoint,
                replica.node_id,
                sends,
                done=lambda: not replica.quarantined,
                deliver=deliver,
                retransmit=replica.repair_retransmit,
                interval=REPAIR_RETRANSMIT,
                timeout=REPAIR_TIMEOUT,
            )
        except OperationFailedError:
            pass
        finally:
            await endpoint.close()
        return False

    async def stabilization_loop(
        self,
        peer_addrs: "Callable[[], dict[str, tuple[str, int]]]",
        interval: float = 1.0,
    ) -> None:
        """Periodic :meth:`audit_tick` until the server stops.

        ``peer_addrs`` is re-read whenever a repair pull starts, so an
        orchestrator can publish (or update) the address book after the
        worker starts — a restarted worker whose data directory rotted
        while it was down repairs itself as soon as the book names its
        peers.  Maintenance must never take the listener down with it, so
        audit/repair errors are swallowed and retried next tick.
        """
        while True:
            await asyncio.sleep(interval)
            if self._server is None:
                return
            try:
                await self.audit_tick(peer_addrs)
            except asyncio.CancelledError:
                raise
            except Exception:
                continue

    async def stop(self) -> None:
        """Stop listening and drop every established connection — the
        moral equivalent of killing the replica process."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for transport in list(self._connections):
            transport.abort()
        self._connections.clear()
        if server is not None:
            await server.wait_closed()

    def _handle_frames(
        self, payloads: list[bytes], transport: asyncio.Transport
    ) -> None:
        """Handle every frame one socket read produced, in arrival order.

        A busy connection (the client-side mux, or a pipelining client)
        lands several frames per read; their replies share one WAL barrier
        and go out in one write once it has closed.  Each reply is
        tagged ``dst=<request src>`` so a multiplexer on the far end can
        route it to the right logical client; plain clients ignore the tag.
        """
        frames: list[Envelope] = []
        for payload in payloads:
            try:
                frames.append(self._decode(payload))
            except (EncodingError, ProtocolError):
                # Corrupted or malformed input is discarded without a reply.
                self.dropped_by_reason["parse-failure"] += 1
        # One barrier for the whole read: the replies are collected while
        # the scope is open and written only after it has closed.  A shard
        # replica has no store of its own; its per-object replicas open
        # their own scope inside ``handle``.
        store = getattr(self.replica, "store", None)
        replies: list[bytes] = []
        with store.group() if store is not None else nullcontext():
            for src, message, _ in frames:
                reply = self.replica.handle(src, message)
                if reply is not None:
                    replies.append(
                        encode_envelope(self.replica.node_id, reply, dst=src)
                    )
        if replies:
            transport.write(b"".join(replies))


class AsyncClient:
    """Async facade over a sans-I/O client, for real-network deployments.

    One logical client on its own endpoint: a :class:`PipelinedClient` of
    window one.  ``repro.cluster.deploy`` runs wider windows.
    """

    def __init__(
        self,
        client: BftBcClient,
        replica_addrs: dict[str, tuple[str, int]],
        *,
        retransmit_interval: float = 0.2,
        op_timeout: float = 30.0,
    ) -> None:
        self.client = client
        self._pipe = PipelinedClient(
            [client],
            replica_addrs,
            retransmit_interval=retransmit_interval,
            op_timeout=op_timeout,
        )

    @property
    def reconnects(self) -> int:
        """Successful re-dials of previously broken replica connections."""
        return self._pipe.endpoint.reconnects

    async def connect(self) -> None:
        """Open a connection to every reachable replica."""
        await self._pipe.connect()

    async def close(self) -> None:
        await self._pipe.close()

    async def write(self, value: Any) -> Any:
        """Perform one write; returns the committed timestamp."""
        return await self._pipe.write(value)

    async def read(self) -> Any:
        """Perform one read; returns the value."""
        return await self._pipe.read()
