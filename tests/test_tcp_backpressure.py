"""Flow control on the TCP path: a peer that stops reading costs bounded
buffer and never blocks anyone else.

* A replica that accepts connections and never reads them is a silent
  replica (§2): its clients keep completing operations on the other 2f+1
  and never wait on its socket.  The client drops frames to it while its
  connection is paused, so the client's buffer stays bounded.
* A client that floods requests and never reads the replies makes the
  server stop reading that client; the server's buffer for it stays
  bounded, and correct clients are still served.

Both run under an outer ``asyncio.wait_for``, so a hang fails the test.
"""

from __future__ import annotations

import asyncio
import socket

from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, make_system
from repro.net.asyncio_transport import AsyncClient
from repro.net.envelope import encode_envelope

SPEC = DeploymentSpec(transport="tcp")
#: Two or three such writes overrun the mute replica's socket buffers.
VALUE = b"x" * (1 << 20)
WRITES = 16


def run(coro, timeout):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def small_buffer_socket(option):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, option, 4096)
    return sock


def test_a_replica_that_stops_reading_does_not_hang_its_clients():
    async def main():
        config = make_system(f=1, seed=b"mute-replica")
        group = await ReplicaGroup.start(
            SPEC, config, node_ids=["replica:0", "replica:1", "replica:2"]
        )
        # replica:3 completes handshakes in the kernel and never reads.
        mute = small_buffer_socket(socket.SO_RCVBUF)
        mute.bind(("127.0.0.1", 0))
        mute.listen()
        addrs = dict(group.addrs, **{"replica:3": mute.getsockname()})
        client = AsyncClient(
            BftBcClient("client:a", config), addrs, op_timeout=5.0
        )
        await client.connect()
        for i in range(WRITES):
            await client.write(("v", i, VALUE))
        assert (await client.read())[:2] == ("v", WRITES - 1)
        # The mute replica's connection is paused, and what the client
        # holds for it is what it wrote before the pause.
        link = client._pipe.endpoint._links["replica:3"]
        assert link.paused
        assert link.transport.get_write_buffer_size() < 2 * len(VALUE)
        await client.close()
        mute.close()
        await group.stop()

    run(main(), timeout=60)


def test_a_client_that_never_reads_is_paused_and_others_are_served():
    async def main():
        config = make_system(f=1, seed=b"flood-no-read")
        config.registry.register("client:flood")
        group = await ReplicaGroup.start(SPEC, config)
        victim = group.servers["replica:0"]
        request = BftBcClient("client:flood", config).begin_read()[0].message
        burst = encode_envelope("client:flood", request) * 64

        flood = small_buffer_socket(socket.SO_RCVBUF)
        flood.setblocking(False)
        loop = asyncio.get_running_loop()
        await loop.sock_connect(flood, group.addrs["replica:0"])
        # Send until the server has stopped reading: our own send buffer
        # stays full for a while.
        pending, sent, blocked_since = b"", 0, None
        while blocked_since is None or loop.time() - blocked_since < 0.5:
            pending = pending or burst
            try:
                n = flood.send(pending)
            except BlockingIOError:
                blocked_since = blocked_since or loop.time()
                await asyncio.sleep(0.01)
                continue
            pending, sent, blocked_since = pending[n:], sent + n, None
            await asyncio.sleep(0)

        (transport,) = victim._connections
        assert not transport.is_reading()
        buffered = transport.get_write_buffer_size()
        handled = victim.replica.stats.handled.total()
        await asyncio.sleep(0.2)
        # Nothing more is read from the flood, and its replies held by the
        # server stay within one read's worth past the high-water mark.
        assert victim.replica.stats.handled.total() == handled
        assert transport.get_write_buffer_size() == buffered
        _, high = transport.get_write_buffer_limits()
        assert buffered <= high + (1 << 20)
        assert sent > 10 * buffered

        client = AsyncClient(
            BftBcClient("client:ok", config), group.addrs, retransmit_interval=0.05
        )
        await client.connect()
        await client.write(("v", 1))
        assert await client.read() == ("v", 1)
        assert victim.replica.stats.handled.total() > handled  # it took part
        await client.close()
        flood.close()
        await group.stop()

    run(main(), timeout=60)
