"""Real asyncio TCP transport for the sans-I/O protocol state machines.

The same replica and client classes that run on the deterministic simulator
run here over real sockets:

* :class:`ReplicaServer` hosts one replica behind a TCP listener.
* :class:`AsyncClient` connects to every replica and exposes
  ``await write(value)`` / ``await read()``, driving the sans-I/O client
  with real timers for retransmission.

The wire format is :mod:`repro.net.envelope`; the client side is one
logical client on its own :class:`~repro.net.mux.MuxEndpoint`, driven by
the shared :func:`~repro.net.mux.drive` loop.  The transport tolerates
connection loss: sends to broken connections are dropped and the
protocol's retransmission recovers, matching the §2 fair-loss model.
"""

from __future__ import annotations

import asyncio
import os
from collections import Counter
from contextlib import nullcontext
from typing import Any, Callable, Optional, Union

from repro.core.client import BftBcClient
from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.operations import Send
from repro.core.replica import BftBcReplica
from repro.encoding import FrameDecoder
from repro.errors import EncodingError, OperationFailedError, ProtocolError
from repro.net.envelope import decode_envelope, encode_envelope
from repro.net.mux import MuxEndpoint, PipelinedClient, drive
from repro.obs.instrumentation import Instrumentation
from repro.storage import FileLogStore

__all__ = ["ReplicaServer", "AsyncClient"]

#: Quiet interval and overall budget of one repair pull; the next audit
#: tick starts another, so a loss here only costs latency.
REPAIR_RETRANSMIT = 0.5
REPAIR_TIMEOUT = 2.0


class ReplicaServer:
    """Hosts one replica state machine behind a TCP listener."""

    def __init__(
        self,
        replica: BftBcReplica,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.replica = replica
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.StreamWriter] = set()
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
        snapshot_interval: Optional[int] = 1024,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "ReplicaServer":
        """Build a server whose replica journals to ``data_dir``.

        The replica recovers from whatever snapshot + WAL the directory
        already holds, so restarting a server on the same directory resumes
        from the pre-crash Figure-2 state.  An instrumentation handle times
        handlers and store calls on the wall clock.
        """
        store = FileLogStore(
            data_dir, fsync=fsync, snapshot_interval=snapshot_interval
        )
        replica = replica_cls(
            node_id, config, store=store, instrumentation=instrumentation
        )
        replica.recover()
        return cls(replica, host=host, port=port)

    async def start(self) -> tuple[str, int]:
        """Start listening; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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
                endpoint.register(replica.node_id),
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        self._connections.add(writer)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                await self._handle_chunk(list(decoder.feed(chunk)), writer)
        except (ConnectionError, EncodingError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels handler tasks blocked in read();
            # completing normally keeps the streams machinery from logging
            # a spurious "exception was never retrieved" at teardown.
            pass
        finally:
            # Close without awaiting: at interpreter shutdown the surrounding
            # task may already be cancelled, and waiting here would raise.
            self._connections.discard(writer)
            writer.close()

    async def _handle_chunk(
        self, payloads: list[bytes], writer: asyncio.StreamWriter
    ) -> None:
        """Handle every frame one socket read produced, in arrival order.

        A busy connection (the client-side mux, or a pipelining client)
        lands several frames per read; their replies share one WAL barrier
        and a single flow-control drain.  Each reply is
        tagged ``dst=<request src>`` so a multiplexer on the far end can
        route it to the right logical client; plain clients ignore the tag.
        """
        frames: list[tuple[str, Message, Optional[str]]] = []
        for payload in payloads:
            try:
                frames.append(decode_envelope(payload))
            except (EncodingError, ProtocolError):
                # Corrupted or malformed input is discarded without a reply.
                self.dropped_by_reason["parse-failure"] += 1
        # One barrier for the whole read: the replies are collected while
        # the scope is open and written only after it has closed (no
        # ``await`` in between, so nothing else can run on the loop).  A
        # shard replica has no store of its own; its per-object replicas
        # open their own scope inside ``handle``.
        store = getattr(self.replica, "store", None)
        replies: list[bytes] = []
        with store.group() if store is not None else nullcontext():
            for src, message, _ in frames:
                reply = self.replica.handle(src, message)
                if reply is not None:
                    replies.append(
                        encode_envelope(self.replica.node_id, reply, dst=src)
                    )
        for data in replies:
            writer.write(data)
        if replies:
            await writer.drain()


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
