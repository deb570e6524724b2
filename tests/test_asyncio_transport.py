"""Tests for the real TCP transport (asyncio)."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, OptimizedBftBcClient, make_system
from repro.errors import OperationFailedError
from repro.net.asyncio_transport import AsyncClient


def run(coro):
    return asyncio.run(coro)


async def start_cluster(config, variant="base", skip=()):
    replica_ids = config.quorums.replica_ids
    group = await ReplicaGroup.start(
        DeploymentSpec(transport="tcp", variant=variant),
        config,
        node_ids=[rid for rid in replica_ids if rid not in skip],
    )
    # A skipped replica gets an address nobody listens on: a crashed one.
    addrs = {rid: group.addrs.get(rid, ("127.0.0.1", 1)) for rid in replica_ids}
    return group, addrs


async def stop_cluster(group, *clients):
    for client in clients:
        await client.close()
    await group.stop()


class TestTcpBase:
    def test_write_and_read(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-1")
            group, addrs = await start_cluster(config)
            client = AsyncClient(BftBcClient("client:a", config), addrs)
            await client.connect()
            ts = await client.write(("client:a", 1, "x"))
            assert ts.val == 1
            value = await client.read()
            assert value == ("client:a", 1, "x")
            await stop_cluster(group, client)

        run(main())

    def test_sequential_writes(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-2")
            group, addrs = await start_cluster(config)
            client = AsyncClient(BftBcClient("client:a", config), addrs)
            await client.connect()
            for seq in range(1, 4):
                ts = await client.write(("client:a", seq, None))
                assert ts.val == seq
            await stop_cluster(group, client)

        run(main())

    def test_two_clients_interleaved(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-3")
            group, addrs = await start_cluster(config)
            a = AsyncClient(BftBcClient("client:a", config), addrs)
            b = AsyncClient(BftBcClient("client:b", config), addrs)
            await a.connect()
            await b.connect()
            await a.write(("client:a", 1, None))
            await b.write(("client:b", 1, None))
            assert await a.read() == ("client:b", 1, None)
            await stop_cluster(group, a, b)

        run(main())

    def test_survives_one_unreachable_replica(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-4")
            group, addrs = await start_cluster(config, skip={"replica:3"})
            client = AsyncClient(
                BftBcClient("client:a", config), addrs, retransmit_interval=0.05
            )
            await client.connect()
            ts = await client.write(("client:a", 1, None))
            assert ts.val == 1
            await stop_cluster(group, client)

        run(main())

    def test_times_out_below_quorum(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-5")
            group, addrs = await start_cluster(
                config, skip={"replica:2", "replica:3"}
            )
            client = AsyncClient(
                BftBcClient("client:a", config),
                addrs,
                retransmit_interval=0.05,
                op_timeout=0.5,
            )
            await client.connect()
            with pytest.raises(OperationFailedError):
                await client.write(("client:a", 1, None))
            await stop_cluster(group, client)

        run(main())


class TestTcpOptimized:
    def test_optimized_fast_path_over_tcp(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-6")
            group, addrs = await start_cluster(config, variant="optimized")
            client = AsyncClient(OptimizedBftBcClient("client:a", config), addrs)
            await client.connect()
            await client.write(("client:a", 1, None))
            assert client.client.op.phases == 2
            assert client.client.last_write_fast_path
            await stop_cluster(group, client)

        run(main())


class TestTcpRobustness:
    def test_garbage_bytes_ignored_by_server(self):
        async def main():
            config = make_system(f=1, seed=b"tcp-7")
            group, addrs = await start_cluster(config)
            # Throw garbage at replica:0's port.
            host, port = addrs["replica:0"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\xbf\xbcnot a real frame at all")
            await writer.drain()
            writer.close()
            # The replica must still serve a real client.
            client = AsyncClient(BftBcClient("client:a", config), addrs)
            await client.connect()
            assert (await client.write(("client:a", 1, None))).val == 1
            await stop_cluster(group, client)

        run(main())


class TestEnvelopeSplice:
    """The framing layer splices cached message bytes into its envelope.

    ``encode_envelope`` builds ``{"msg": <message>, "src": <src>}`` by byte
    concatenation (the canonical encoding is self-delimiting and dict keys
    sort "msg" < "src"), reusing the message's encode-once bytes.  It must
    be indistinguishable from encoding the whole envelope from scratch.
    """

    def test_splice_equals_fresh_full_encode(self):
        from repro.core.messages import ReadTsRequest, message_to_wire
        from repro.encoding import canonical_decode, canonical_encode
        from repro.net.envelope import encode_envelope

        message = ReadTsRequest(nonce=b"splice-test")
        spliced = encode_envelope("client:a", message)
        fresh = canonical_encode(
            {"msg": message_to_wire(message), "src": "client:a"}
        )
        # Strip the length-prefix framing, then compare payload bytes.
        from repro.encoding import FrameDecoder

        decoder = FrameDecoder()
        frames = list(decoder.feed(spliced))
        assert len(frames) == 1
        assert frames[0] == fresh
        decoded = canonical_decode(frames[0])
        assert decoded["src"] == "client:a"
        assert decoded["msg"] == message_to_wire(message)
