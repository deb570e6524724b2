"""Durable TCP replicas and client re-dial behaviour.

A file-store :class:`~repro.cluster.ReplicaGroup` journals each replica to
its data directory; crashing one and recovering it on the same directory
must resume from the pre-crash state.  The client side must survive this: its old connection is
dead, so the retransmission timer re-dials before resending (the fix these
tests pin down — previously a broken connection stayed broken until the
operation timed out).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, make_system
from repro.net.asyncio_transport import AsyncClient


def run(coro):
    return asyncio.run(coro)


async def start_durable_cluster(config, tmp_path):
    spec = DeploymentSpec(transport="tcp", store="file", data_dir=str(tmp_path))
    group = await ReplicaGroup.start(spec, config)
    return group, group.addrs


async def stop_all(group, *clients):
    for client in clients:
        await client.close()
    await group.stop()


def test_durable_server_restart_resumes_state(tmp_path):
    async def main():
        config = make_system(f=1, seed=b"tcp-durable")
        group, addrs = await start_durable_cluster(config, tmp_path)
        client = AsyncClient(
            BftBcClient("client:a", config), addrs, retransmit_interval=0.05
        )
        await client.connect()
        await client.write(("v", 1))
        await client.write(("v", 2))

        # Kill one replica process outright, then bring a *new* server up
        # on the same data directory and port.
        victim = "replica:1"
        fingerprint = group.replicas[victim].state_fingerprint(
            include_signing_logs=True
        )
        await group.crash(victim)
        reborn = await group.recover(victim)
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

        await stop_all(group, client)

    run(main())


def test_client_redials_replica_that_was_down_at_connect(tmp_path):
    async def main():
        config = make_system(f=1, seed=b"tcp-redial")
        group, addrs = await start_durable_cluster(config, tmp_path)

        # One replica is down from the start: connect() skips it, and the
        # quorum of 3 still serves.
        victim = "replica:2"
        await group.crash(victim)

        client = AsyncClient(
            BftBcClient("client:a", config), addrs, retransmit_interval=0.05
        )
        await client.connect()
        await client.write(("v", 1))

        # Bring the replica back; the next operation's retransmission tick
        # re-dials it so it rejoins the quorum.
        reborn = await group.recover(victim)

        for i in range(2, 6):
            await client.write(("v", i))
        # The replica was never connected, so this dial is a first connect,
        # not a "reconnect" — but it must now hold a live socket and have
        # taken part in the later writes: with another replica down, a
        # write completes only if the reborn one is in its quorum.
        assert reborn.replica.stats.handled
        assert client.reconnects == 0
        await group.crash("replica:0")
        await client.write(("v", 6))

        await stop_all(group, client)

    run(main())
