"""The simulator and the TCP transport drive identical protocol outcomes."""

from __future__ import annotations

import asyncio

from repro import build_cluster
from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, make_system
from repro.net.asyncio_transport import AsyncClient
from repro.sim import write_script, read_script

VALUES = [("client:w", seq, f"payload-{seq}") for seq in range(3)]


def run_simulated():
    cluster = build_cluster(f=1, seed=77)
    node = cluster.add_client("w")
    node.run_script([("write", v) for v in VALUES] + read_script(1))
    cluster.run(max_time=60)
    cluster.settle()
    replica = cluster.replicas["replica:0"]
    return node.client.last_result, replica.data, replica.pcert.ts


def run_tcp():
    async def main():
        config = make_system(f=1, seed=b"cross-transport")
        group = await ReplicaGroup.start(DeploymentSpec(transport="tcp"), config)
        client = AsyncClient(BftBcClient("client:w", config), group.addrs)
        await client.connect()
        for value in VALUES:
            await client.write(value)
        read = await client.read()
        await client.close()
        await group.stop()
        replica = group.replicas["replica:0"]
        return read, replica.data, replica.pcert.ts

    return asyncio.run(main())


def test_same_outcome_on_both_transports():
    sim_read, sim_data, sim_ts = run_simulated()
    tcp_read, tcp_data, tcp_ts = run_tcp()
    assert sim_read == tcp_read == VALUES[-1]
    assert sim_data == tcp_data == VALUES[-1]
    assert sim_ts == tcp_ts  # same protocol, same timestamps
