"""Durable TCP replicas and client re-dial behaviour.

A :meth:`ReplicaServer.durable` server journals to a data directory; killing
it and starting a fresh server on the same directory must resume from the
pre-crash state.  The client side must survive this: its old connection is
dead, so the retransmission timer re-dials before resending (the fix these
tests pin down — previously a broken connection stayed broken until the
operation timed out).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import BftBcClient, BftBcReplica, make_system
from repro.net.asyncio_transport import AsyncClient, ReplicaServer
from repro.storage import FileLogStore


def run(coro):
    return asyncio.run(coro)


async def start_durable_cluster(config, tmp_path):
    servers, addrs = {}, {}
    for rid in config.quorums.replica_ids:
        server = ReplicaServer.durable(rid, config, tmp_path / rid)
        host, port = await server.start()
        addrs[rid] = (host, port)
        servers[rid] = server
    return servers, addrs


async def stop_all(servers, *clients):
    for client in clients:
        await client.close()
    for server in servers.values():
        server.replica.store.close()
        await server.stop()


def test_durable_server_restart_resumes_state(tmp_path):
    async def main():
        config = make_system(f=1, seed=b"tcp-durable")
        servers, addrs = await start_durable_cluster(config, tmp_path)
        client = AsyncClient(
            BftBcClient("client:a", config), addrs, retransmit_interval=0.05
        )
        await client.connect()
        await client.write(("v", 1))
        await client.write(("v", 2))

        # Kill one replica process outright, then bring a *new* server up
        # on the same data directory and port.
        victim = "replica:1"
        fingerprint = servers[victim].replica.state_fingerprint(
            include_signing_logs=True
        )
        await servers[victim].stop()
        servers[victim].replica.store.close()
        host, port = addrs[victim]
        reborn = ReplicaServer.durable(
            victim, config, tmp_path / victim, host=host, port=port
        )
        await reborn.start()
        servers[victim] = reborn
        assert (
            reborn.replica.state_fingerprint(include_signing_logs=True)
            == fingerprint
        )

        # The client's socket to the victim is dead; the retransmission
        # timer re-dials it and the full cluster keeps serving.
        await client.write(("v", 3))
        assert await client.read() == ("v", 3)
        assert client.reconnects >= 1
        assert reborn.replica.stats.handled  # the reborn replica took part

        await stop_all(servers, client)

    run(main())


def test_client_redials_replica_that_was_down_at_connect(tmp_path):
    async def main():
        config = make_system(f=1, seed=b"tcp-redial")
        servers, addrs = await start_durable_cluster(config, tmp_path)

        # One replica is down from the start: connect() skips it, and the
        # quorum of 3 still serves.
        victim = "replica:2"
        await servers[victim].stop()
        servers[victim].replica.store.close()

        client = AsyncClient(
            BftBcClient("client:a", config), addrs, retransmit_interval=0.05
        )
        await client.connect()
        await client.write(("v", 1))

        # Bring the replica back; the next operation's retransmission tick
        # re-dials it so it rejoins the quorum.
        host, port = addrs[victim]
        reborn = ReplicaServer.durable(
            victim, config, tmp_path / victim, host=host, port=port
        )
        await reborn.start()
        servers[victim] = reborn

        for i in range(2, 6):
            await client.write(("v", i))
        # The replica was never connected, so this dial is a first connect,
        # not a "reconnect" — but it must now hold a live socket and have
        # taken part in the later writes: with another replica down, a
        # write completes only if the reborn one is in its quorum.
        assert reborn.replica.stats.handled
        assert client.reconnects == 0
        await servers["replica:0"].stop()
        await client.write(("v", 6))

        await stop_all(servers, client)

    run(main())
