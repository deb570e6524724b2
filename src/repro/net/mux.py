"""Client-side connection multiplexing and pipelined operations.

A process driving many concurrent operations against the cluster does not
need one socket per operation.  :class:`MuxEndpoint` holds **one TCP
connection per replica**, shared by any number of *logical* clients:
requests go out tagged with the logical client's id as the envelope
``src``; the server tags each reply with ``dst=<that id>`` (see
``repro.net.asyncio_transport``) and the endpoint's read callback hands it
straight to the handler of the operation running under that id.

:class:`PipelinedClient` builds on the endpoint to pipeline a FIFO of
operations.  The protocol requires each client identity's operations to be
sequential — overlapping the phases of two writes under one identity is
exactly the faulty-client behaviour replicas refuse (§4.1, and the
one-prepared-write-per-client rule of Figure 2) — so the pipeline window is
made of k logical clients: submitted operations are dealt to whichever
logical client is idle, giving k operations in flight per process over just
3f+1 sockets.  Requests arriving back-to-back land in the same socket read
at the replica, where their replies share one WAL barrier
(``ReplicaServer._handle_frames``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from repro.encoding import FrameDecoder
from repro.errors import EncodingError, NetworkError, OperationFailedError, ProtocolError
from repro.net.envelope import decode_envelope, encode_envelope

if TYPE_CHECKING:
    from repro.core.client import BftBcClient
    from repro.core.phases import Send

__all__ = ["MuxEndpoint", "drive", "PipelinedClient", "OpRecord"]

Handler = Callable[[str, Any], None]


class _Link(asyncio.Protocol):
    """The endpoint's connection to one replica."""

    transport: asyncio.Transport

    def __init__(self, endpoint: "MuxEndpoint", node_id: str) -> None:
        self._endpoint = endpoint
        self._node_id = node_id
        self._decoder = FrameDecoder()
        #: Set while the transport's write buffer is over its high-water
        #: mark: frames to this replica are dropped until it drains.
        self.paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        links = self._endpoint._links
        if links.get(self._node_id) is self:
            del links[self._node_id]

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False

    def data_received(self, data: bytes) -> None:
        route = self._endpoint._route
        try:
            for payload in self._decoder.feed(data):
                route(payload)
        except EncodingError:
            self.transport.close()


class MuxEndpoint:
    """One TCP connection per replica, shared by many logical clients.

    Nothing here awaits a write: a frame goes into its connection's
    buffer, or is lost if that connection is missing or paused (a replica
    that stops reading is a silent one, §2), and the protocol's
    retransmission recovers.
    """

    def __init__(self, replica_addrs: dict[str, tuple[str, int]]) -> None:
        self.replica_addrs = dict(replica_addrs)
        #: Live connections only: a lost one drops itself, so an endpoint
        #: behind a flapping link holds at most one per replica.
        self._links: dict[str, _Link] = {}
        self._handlers: dict[str, Handler] = {}
        #: Successful re-dials of previously broken replica connections.
        self.reconnects = 0
        self._ever_connected: set[str] = set()
        #: Replies whose demux tag named no registered client.
        self.unroutable = 0

    def register(self, client_id: str, handler: Handler) -> None:
        """Route replies tagged ``client_id`` to ``handler(src, message)``."""
        if client_id in self._handlers:
            raise ValueError(f"logical client {client_id!r} already registered")
        self._handlers[client_id] = handler

    def unregister(self, client_id: str) -> None:
        """Release a logical client id; later replies to it are unroutable."""
        self._handlers.pop(client_id, None)

    def _route(self, payload: bytes) -> None:
        try:
            src, message, dst = decode_envelope(payload)
        except (EncodingError, ProtocolError):
            return
        handler = self._handlers.get(dst)  # type: ignore[arg-type]
        if handler is None:
            self.unroutable += 1
        else:
            handler(src, message)

    async def connect(self) -> None:
        """Open the shared connection to every reachable replica."""
        await self.reconnect_broken()
        if not self._links:
            raise NetworkError("could not connect to any replica")

    async def reconnect_broken(self) -> None:
        """Re-dial every replica whose shared connection is missing or dead."""
        loop = asyncio.get_running_loop()
        for node_id, (host, port) in self.replica_addrs.items():
            link = self._links.get(node_id)
            if link is not None:
                if not link.transport.is_closing():
                    continue
                del self._links[node_id]
                link.transport.abort()
            try:
                _, link = await loop.create_connection(
                    lambda: _Link(self, node_id), host, port
                )
            except OSError:
                continue
            if node_id in self._links:  # a concurrent re-dial won the race
                link.transport.abort()
                continue
            self._links[node_id] = link
            if node_id in self._ever_connected:
                self.reconnects += 1
            self._ever_connected.add(node_id)

    async def send(self, client_id: str, sends: Iterable[Send]) -> None:
        """:meth:`write`, for callers on a task; it never suspends."""
        self.write(client_id, sends)

    def write(self, client_id: str, sends: Iterable[Send]) -> None:
        """Buffer each send on its replica's shared connection, if live."""
        for send in sends:
            link = self._links.get(send.dest)
            if link is not None and not link.paused:
                link.transport.write(encode_envelope(client_id, send.message))

    async def close(self) -> None:
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            link.transport.abort()
        if links:
            await asyncio.sleep(0)  # let each connection_lost run


async def drive(
    endpoint: MuxEndpoint,
    node_id: str,
    initial_sends: Iterable[Send],
    *,
    done: Callable[[], bool],
    deliver: Callable[[str, Any], Iterable[Send]],
    retransmit: Callable[[], Iterable[Send]],
    interval: float,
    timeout: float,
) -> None:
    """Run one sans-I/O round trip over sockets: the paper's §3 pattern.

    Registers ``node_id`` on the endpoint for the duration, re-dials any
    broken connection, sends ``initial_sends``, and feeds every reply
    through ``deliver`` (sending whatever it returns) from the endpoint's
    read callback until ``done()``.  The coroutine waits on one future per quiet ``interval``,
    armed by a ``call_later`` timer; an interval in which no reply arrived
    is when broken connections matter — without a live socket the
    retransmission would be a no-op against a restarted replica — so the
    endpoint re-dials first and then ``retransmit()`` goes out.  Raises
    :class:`~repro.errors.OperationFailedError` ``timeout`` seconds after
    the call.

    Every client-side role (core clients, the shard router, the
    reconfigurator, a joining replica's state transfer, quarantine repair)
    is driven by this one loop.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    heard = False
    failure: Optional[BaseException] = None
    wake: asyncio.Future = loop.create_future()

    def on_reply(src: str, message: Any) -> None:
        nonlocal heard, failure
        if failure is not None or done():
            return  # a straggler: this operation already has its quorum
        heard = True
        try:
            endpoint.write(node_id, deliver(src, message))
        except Exception as exc:
            failure = exc
        if (failure is not None or done()) and not wake.done():
            wake.set_result(None)

    endpoint.register(node_id, on_reply)
    try:
        await endpoint.reconnect_broken()
        await endpoint.send(node_id, initial_sends)
        while not done():
            if failure is not None:
                raise failure
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise OperationFailedError(f"operation timed out after {timeout}s")
            heard = False
            wake = loop.create_future()
            timer = loop.call_later(min(interval, remaining), _wake, wake)
            try:
                await wake
            finally:
                timer.cancel()
            if not heard and failure is None and not done():
                await endpoint.reconnect_broken()
                await endpoint.send(node_id, retransmit())
    finally:
        endpoint.unregister(node_id)


def _wake(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


@dataclass
class OpRecord:
    """One completed pipelined operation.

    ``index`` is the operation's position in the submitted script;
    records are returned in *completion* order, so comparing the two
    orders exposes pipeline reordering.  ``result`` is the committed
    timestamp for writes and the value for reads.
    """

    index: int
    kind: str
    value: Any
    client: str
    result: Any


class PipelinedClient:
    """Runs a FIFO of operations with up to ``len(clients)`` in flight.

    Each sans-I/O client in ``clients`` is one slot of the pipeline
    window; all of them share one :class:`MuxEndpoint`.  Every logical
    client id must be registered with the replicas' key registry (the
    standard ``client:`` namespace works — see
    ``KeyRegistry.open_namespace``).
    """

    def __init__(
        self,
        clients: Sequence[BftBcClient],
        replica_addrs: dict[str, tuple[str, int]],
        *,
        retransmit_interval: float = 0.2,
        op_timeout: float = 30.0,
    ) -> None:
        if not clients:
            raise ValueError("PipelinedClient needs at least one client")
        self.clients = list(clients)
        self.retransmit_interval = retransmit_interval
        self.op_timeout = op_timeout
        if len({client.node_id for client in self.clients}) < len(self.clients):
            raise ValueError("PipelinedClient needs distinct logical client ids")
        self.endpoint = MuxEndpoint(replica_addrs)

    @property
    def window(self) -> int:
        return len(self.clients)

    async def connect(self) -> None:
        await self.endpoint.connect()

    async def close(self) -> None:
        await self.endpoint.close()

    async def run_script(
        self, script: Sequence[tuple[str, Any]]
    ) -> list[OpRecord]:
        """Execute ``[(kind, value), ...]`` steps, k at a time, FIFO.

        Steps are dealt to logical clients in submission order as slots
        free up; the returned records are in completion order.
        """
        steps = list(enumerate(script))
        cursor = iter(steps)
        records: list[OpRecord] = []

        async def worker(client: BftBcClient) -> None:
            for index, (kind, value) in cursor:
                result = await self._run_op(client, kind, value)
                records.append(
                    OpRecord(
                        index=index,
                        kind=kind,
                        value=value,
                        client=client.node_id,
                        result=result,
                    )
                )

        await asyncio.gather(*(worker(client) for client in self.clients))
        return records

    async def write(self, value: Any) -> Any:
        """One write through the first pipeline slot (no concurrency)."""
        return await self._run_op(self.clients[0], "write", value)

    async def read(self) -> Any:
        """One read through the first pipeline slot (no concurrency)."""
        return await self._run_op(self.clients[0], "read", None)

    async def _run_op(self, client: BftBcClient, kind: str, value: Any) -> Any:
        if kind == "write":
            sends = client.begin_write(value)
        elif kind == "read":
            sends = client.begin_read()
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        await drive(
            self.endpoint,
            client.node_id,
            sends,
            done=lambda: not client.busy,
            deliver=client.deliver,
            retransmit=client.retransmit,
            interval=self.retransmit_interval,
            timeout=self.op_timeout,
        )
        assert client.op is not None
        return client.op.result
