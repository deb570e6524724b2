"""Hostile raw-TCP peers against :class:`ReplicaServer`.

A Byzantine client is not obliged to speak the framing protocol at all —
it can send garbage magic, absurd length prefixes, half a frame, or one
byte per second.  The server's obligations are operational, not
protocol-level: drop the offending connection, leak no handler state, and
keep serving correct clients throughout.  These tests speak raw sockets
(no :class:`AsyncClient`) so nothing sanitises the bytes on the way out.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, make_system
from repro.encoding.codec import MAX_FRAME_SIZE
from repro.net.asyncio_transport import AsyncClient


def run(coro):
    return asyncio.run(coro)


async def start_cluster(config):
    group = await ReplicaGroup.start(DeploymentSpec(transport="tcp"), config)
    return group, group.addrs


async def stop_all(group, *clients):
    for client in clients:
        await client.close()
    await group.stop()


async def wait_for(predicate, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def assert_cluster_serves(config, addrs, value):
    """A correct client can still complete a full write/read round."""
    client = AsyncClient(
        BftBcClient("client:ok", config), addrs, retransmit_interval=0.05
    )
    await client.connect()
    await client.write(value)
    assert await client.read() == value
    await client.close()


def test_garbage_magic_drops_connection_and_cluster_survives():
    async def main():
        config = make_system(f=1, seed=b"hostile-magic")
        group, addrs = await start_cluster(config)
        victim = group.servers["replica:0"]

        reader, writer = await asyncio.open_connection(*addrs["replica:0"])
        writer.write(b"\x00\x00" + b"junk that is certainly not a frame")
        await writer.drain()
        # The server's frame decoder rejects the magic and the handler
        # closes the connection from its side.
        assert (await reader.read(64)) == b""
        assert await wait_for(lambda: not victim._connections)
        writer.close()

        await assert_cluster_serves(config, addrs, ("v", 1))
        await stop_all(group)

    run(main())


def test_oversized_length_prefix_rejected_before_allocation():
    async def main():
        config = make_system(f=1, seed=b"hostile-length")
        group, addrs = await start_cluster(config)
        victim = group.servers["replica:0"]

        reader, writer = await asyncio.open_connection(*addrs["replica:0"])
        # A valid magic with a length beyond MAX_FRAME_SIZE: the decoder
        # must reject it from the header alone, never buffering 4 GiB.
        writer.write(b"\xbf\xbc" + struct.pack(">I", MAX_FRAME_SIZE + 1))
        await writer.drain()
        assert (await reader.read(64)) == b""
        assert await wait_for(lambda: not victim._connections)
        writer.close()

        await assert_cluster_serves(config, addrs, ("v", 2))
        await stop_all(group)

    run(main())


def test_mid_frame_disconnect_leaves_no_state():
    async def main():
        config = make_system(f=1, seed=b"hostile-midframe")
        group, addrs = await start_cluster(config)
        victim = group.servers["replica:0"]
        handled_before = victim.replica.stats.handled

        _, writer = await asyncio.open_connection(*addrs["replica:0"])
        # A correct header promising 1000 bytes, then only 10 — and gone.
        writer.write(b"\xbf\xbc" + struct.pack(">I", 1000) + b"partial...")
        await writer.drain()
        writer.close()
        assert await wait_for(lambda: not victim._connections)
        # The half-frame never reached the replica.
        assert victim.replica.stats.handled == handled_before

        await assert_cluster_serves(config, addrs, ("v", 3))
        await stop_all(group)

    run(main())


def test_slow_loris_does_not_starve_correct_clients():
    async def main():
        config = make_system(f=1, seed=b"hostile-loris")
        group, addrs = await start_cluster(config)
        victim = group.servers["replica:0"]

        # Several connections each dribbling an eternally incomplete frame.
        lorises = []
        for _ in range(5):
            _, writer = await asyncio.open_connection(*addrs["replica:0"])
            writer.write(b"\xbf\xbc" + struct.pack(">I", 4096) + b"\x00")
            await writer.drain()
            lorises.append(writer)
        assert await wait_for(lambda: len(victim._connections) >= 5)

        # Handlers are per-connection tasks: the stuck reads cannot block
        # a correct client's operations on the same server.
        await assert_cluster_serves(config, addrs, ("v", 4))

        for writer in lorises:
            writer.close()
        assert await wait_for(lambda: not victim._connections)

        await stop_all(group)

    run(main())
