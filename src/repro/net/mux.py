"""Client-side connection multiplexing and pipelined operations.

A process driving many concurrent operations against the cluster does not
need one socket per operation.  :class:`MuxEndpoint` holds **one TCP
connection per replica**, shared by any number of *logical* clients:
requests go out tagged with the logical client's id as the envelope
``src``; the server tags each reply with ``dst=<that id>`` (see
``repro.net.asyncio_transport``) and the endpoint's read loops route it to
the owning client's inbox.

:class:`PipelinedClient` builds on the endpoint to pipeline a FIFO of
operations.  The protocol requires each client identity's operations to be
sequential — overlapping the phases of two writes under one identity is
exactly the faulty-client behaviour replicas refuse (§4.1, and the
one-prepared-write-per-client rule of Figure 2) — so the pipeline window is
made of k logical clients: submitted operations are dealt to whichever
logical client is idle, giving k operations in flight per process over just
3f+1 sockets.  Requests arriving back-to-back land in the same socket read
at the replica, where their replies share one WAL barrier
(``ReplicaServer._handle_chunk``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.encoding import FrameDecoder
from repro.errors import EncodingError, NetworkError, OperationFailedError, ProtocolError
from repro.net.envelope import decode_envelope, encode_envelope

if TYPE_CHECKING:
    from repro.core.client import BftBcClient
    from repro.core.phases import Send

__all__ = ["MuxEndpoint", "drive", "PipelinedClient", "OpRecord"]


class MuxEndpoint:
    """One TCP connection per replica, shared by many logical clients."""

    def __init__(self, replica_addrs: dict[str, tuple[str, int]]) -> None:
        self.replica_addrs = dict(replica_addrs)
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        #: Live read loops only: a finished task drops itself, so an
        #: endpoint behind a flapping link does not grow per re-dial.
        self._reader_tasks: set[asyncio.Task] = set()
        self._inboxes: dict[str, asyncio.Queue] = {}
        #: Successful re-dials of previously broken replica connections.
        self.reconnects = 0
        self._ever_connected: set[str] = set()
        #: Replies whose demux tag named no registered client.
        self.unroutable = 0

    def register(self, client_id: str) -> "asyncio.Queue[tuple[str, Any]]":
        """Claim a logical client id; returns its reply inbox."""
        if client_id in self._inboxes:
            raise ValueError(f"logical client {client_id!r} already registered")
        queue: asyncio.Queue = asyncio.Queue()
        self._inboxes[client_id] = queue
        return queue

    def unregister(self, client_id: str) -> None:
        """Release a logical client id; later replies to it are unroutable."""
        self._inboxes.pop(client_id, None)

    async def connect(self) -> None:
        """Open the shared connection to every reachable replica."""
        await self.reconnect_broken()
        if not self._writers:
            raise NetworkError("could not connect to any replica")

    async def _try_connect(self, node_id: str, host: str, port: int) -> bool:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            return False
        self._writers[node_id] = writer
        if node_id in self._ever_connected:
            self.reconnects += 1
        self._ever_connected.add(node_id)
        task = asyncio.create_task(self._read_loop(node_id, reader, writer))
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)
        return True

    async def _read_loop(
        self,
        node_id: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for payload in decoder.feed(chunk):
                    try:
                        src, message, dst = decode_envelope(payload)
                    except (EncodingError, ProtocolError):
                        continue
                    queue = self._inboxes.get(dst)
                    if queue is None:
                        self.unroutable += 1
                        continue
                    await queue.put((src, message))
        except (ConnectionError, EncodingError):
            pass
        finally:
            if self._writers.get(node_id) is writer:
                self._writers.pop(node_id, None)

    async def reconnect_broken(self) -> None:
        """Re-dial every replica whose shared connection is missing or dead."""
        for node_id, (host, port) in self.replica_addrs.items():
            writer = self._writers.get(node_id)
            if writer is not None and not writer.is_closing():
                continue
            if writer is not None:
                self._writers.pop(node_id, None)
                writer.close()
            await self._try_connect(node_id, host, port)

    async def send(self, client_id: str, sends: Iterable[Send]) -> None:
        """Write each send on its replica's shared connection.

        Per-replica locks keep concurrent logical clients' write+drain
        sequences from interleaving mid-frame; a dead connection is
        re-dialled lazily, and a failed dial is just message loss (the
        protocol's retransmission recovers, per the §2 fair-loss model).
        """
        for send in sends:
            lock = self._locks.setdefault(send.dest, asyncio.Lock())
            async with lock:
                writer = self._writers.get(send.dest)
                if writer is None or writer.is_closing():
                    addr = self.replica_addrs.get(send.dest)
                    if addr is None or not await self._try_connect(
                        send.dest, *addr
                    ):
                        continue
                    writer = self._writers[send.dest]
                try:
                    writer.write(encode_envelope(client_id, send.message))
                    await writer.drain()
                except (OSError, RuntimeError):
                    self._writers.pop(send.dest, None)

    async def close(self) -> None:
        for task in list(self._reader_tasks):
            task.cancel()
        for writer in list(self._writers.values()):
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
        self._writers.clear()


async def drive(
    endpoint: MuxEndpoint,
    node_id: str,
    inbox: "asyncio.Queue[tuple[str, Any]]",
    initial_sends: Iterable[Send],
    *,
    done: Callable[[], bool],
    deliver: Callable[[str, Any], Iterable[Send]],
    retransmit: Callable[[], Iterable[Send]],
    interval: float,
    timeout: float,
) -> None:
    """Run one sans-I/O round trip over sockets: the paper's §3 pattern.

    Send ``initial_sends``, feed every reply routed to ``inbox`` through
    ``deliver`` (sending whatever it returns) until ``done()``.  A quiet
    ``interval`` is when broken connections matter — without a live socket
    the retransmission would be a no-op against a restarted replica — so
    the endpoint re-dials first and then ``retransmit()`` goes out.  Raises
    :class:`~repro.errors.OperationFailedError` after ``timeout`` seconds.

    Every client-side role (core clients, the shard router, the
    reconfigurator, a joining replica's state transfer, quarantine repair)
    is driven by this one loop.
    """
    await endpoint.send(node_id, initial_sends)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not done():
        remaining = deadline - loop.time()
        if remaining <= 0:
            raise OperationFailedError(f"operation timed out after {timeout}s")
        try:
            src, message = await asyncio.wait_for(
                inbox.get(), timeout=min(interval, remaining)
            )
        except asyncio.TimeoutError:
            await endpoint.reconnect_broken()
            await endpoint.send(node_id, retransmit())
            continue
        # A quorum's replies land nearly simultaneously; drain whatever
        # else has already arrived, so a straggler reaches this operation
        # (which ignores it once done) rather than the next one.
        batch = [(src, message)]
        while True:
            try:
                batch.append(inbox.get_nowait())
            except asyncio.QueueEmpty:
                break
        for src, message in batch:
            await endpoint.send(node_id, deliver(src, message))


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
        self.endpoint = MuxEndpoint(replica_addrs)
        self._inboxes = {
            client.node_id: self.endpoint.register(client.node_id)
            for client in self.clients
        }

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
            self._inboxes[client.node_id],
            sends,
            done=lambda: not client.busy,
            deliver=client.deliver,
            retransmit=client.retransmit,
            interval=self.retransmit_interval,
            timeout=self.op_timeout,
        )
        assert client.op is not None
        return client.op.result
