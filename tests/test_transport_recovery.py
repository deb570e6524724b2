"""Connection-failure recovery in the asyncio transport."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, make_system
from repro.errors import NetworkError
from repro.net.asyncio_transport import AsyncClient

SPEC = DeploymentSpec(transport="tcp")


def run(coro):
    return asyncio.run(coro)


class TestReconnection:
    def test_replica_restart_mid_session(self):
        """A replica dies after the first write and comes back (same state
        machine, new socket) — the client reconnects lazily and continues."""

        async def main():
            config = make_system(f=1, seed=b"reconn-1")
            group = await ReplicaGroup.start(SPEC, config)
            client = AsyncClient(
                BftBcClient("client:a", config),
                group.addrs,
                retransmit_interval=0.05,
            )
            await client.connect()
            await client.write(("client:a", 1, None))

            # Kill replica:0's listener, then restart it on the SAME port.
            await group.crash("replica:0")
            await asyncio.sleep(0.05)
            await group.recover("replica:0")

            ts = await client.write(("client:a", 2, None))
            assert ts.val == 2
            value = await client.read()
            assert value == ("client:a", 2, None)
            await client.close()
            await group.stop()

        run(main())

    def test_connect_requires_at_least_one_replica(self):
        async def main():
            config = make_system(f=1, seed=b"reconn-2")
            addrs = {
                rid: ("127.0.0.1", 1)  # nothing listens on port 1
                for rid in config.quorums.replica_ids
            }
            client = AsyncClient(BftBcClient("client:a", config), addrs)
            with pytest.raises(NetworkError):
                await client.connect()

        run(main())

    def test_half_open_connections_tolerated(self):
        """Sends into connections the peer already closed count as loss;
        retransmission routes around them."""

        async def main():
            config = make_system(f=1, seed=b"reconn-3")
            group = await ReplicaGroup.start(SPEC, config)
            client = AsyncClient(
                BftBcClient("client:a", config),
                group.addrs,
                retransmit_interval=0.05,
            )
            await client.connect()
            # Close one server *without* the client noticing yet.
            await group.crash("replica:3")
            ts = await client.write(("client:a", 1, None))
            assert ts.val == 1
            await client.close()
            await group.stop()

        run(main())
