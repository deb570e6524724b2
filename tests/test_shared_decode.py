"""One decode per distinct frame per loop turn across a replica group.

A client sends each request to every replica, so a process hosting
several replicas of a :class:`~repro.cluster.deploy.ReplicaGroup` reads
byte-identical frames once per replica.  The group's servers share one
:class:`~repro.net.asyncio_transport.SharedDecode`: the copies that land
in one event-loop turn are decoded once, the table is empty again after
that turn, different bytes (an equivocating client) are decoded apart,
and a frame that fails to parse is counted by every server that got it.
These tests feed the servers' read callbacks directly, so which copies
share a turn is decided by the test, not by the kernel.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.net.asyncio_transport as transport_module
from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, make_system
from repro.encoding import encode_frame
from repro.net.asyncio_transport import _Connection
from repro.net.envelope import encode_envelope

from tests.helpers import ProtocolKit

SPEC = DeploymentSpec(transport="tcp")


class Sink:
    """A transport that keeps what the server writes."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(data)

    def close(self):
        pass

    abort = close


@pytest.fixture
def decodes(monkeypatch):
    """Counts every envelope decode the servers run."""
    count = [0]
    real = transport_module.decode_envelope

    def counting(payload):
        count[0] += 1
        return real(payload)

    monkeypatch.setattr(transport_module, "decode_envelope", counting)
    return count


def connect(server):
    connection = _Connection(server)
    sink = Sink()
    connection.connection_made(sink)
    return connection, sink


def run_group(seed, body):
    async def main():
        config = make_system(f=1, seed=seed)
        group = await ReplicaGroup.start(SPEC, config)
        try:
            return await body(config, group)
        finally:
            await group.stop()

    return asyncio.run(main())


def test_a_broadcast_landing_in_one_turn_is_decoded_once(decodes):
    async def body(config, group):
        config.registry.register("client:a")
        request = BftBcClient("client:a", config).begin_read()[0].message
        frame = encode_envelope("client:a", request)
        sinks = []
        for server in group.servers.values():
            connection, sink = connect(server)
            connection.data_received(frame)
            sinks.append(sink)
        assert decodes[0] == 1
        assert len(group.decode._frames) == 1
        await asyncio.sleep(0)  # the turn ends: the table empties itself
        assert len(group.decode._frames) == 0
        # Every replica answered its copy.
        assert [len(sink.writes) for sink in sinks] == [1, 1, 1, 1]

    run_group(b"shared-decode-once", body)


def test_copies_in_different_turns_are_decoded_apart(decodes):
    async def body(config, group):
        config.registry.register("client:a")
        request = BftBcClient("client:a", config).begin_read()[0].message
        frame = encode_envelope("client:a", request)
        for server in group.servers.values():
            connect(server)[0].data_received(frame)
            await asyncio.sleep(0)
        assert decodes[0] == len(group.servers)
        assert len(group.decode._frames) == 0

    run_group(b"shared-decode-turns", body)


def test_an_equivocating_client_is_decoded_per_distinct_frame(decodes):
    async def body(config, group):
        kit = ProtocolKit(config, "client:evil")
        replicas = list(group.replicas.values())
        pcert = replicas[0].pcert
        ts = pcert.ts.succ(kit.client)
        frames = [
            encode_envelope(kit.client, kit.prepare_request(pcert, ts, value))
            for value in ("left", "right")
        ]
        sinks = []
        for i, server in enumerate(group.servers.values()):
            connection, sink = connect(server)
            connection.data_received(frames[i % 2])
            sinks.append(sink)
        assert frames[0] != frames[1]
        assert decodes[0] == 2
        assert len(group.decode._frames) == 2
        # Each replica saw exactly one of the two values and answered it.
        assert [len(sink.writes) for sink in sinks] == [1, 1, 1, 1]
        await asyncio.sleep(0)
        assert len(group.decode._frames) == 0

    run_group(b"shared-decode-equivocate", body)


def test_a_frame_that_fails_to_parse_is_counted_by_every_server(decodes):
    async def body(config, group):
        frame = encode_frame(b"not a canonical envelope")
        sinks = []
        for server in group.servers.values():
            connection, sink = connect(server)
            connection.data_received(frame)
            sinks.append(sink)
        assert decodes[0] == len(group.servers)  # failures are not kept
        assert len(group.decode._frames) == 0
        for server in group.servers.values():
            assert server.dropped_by_reason["parse-failure"] == 1
        assert not any(sink.writes for sink in sinks)

    run_group(b"shared-decode-garbage", body)


def test_each_group_has_its_own_table():
    async def body(config, group):
        other = await ReplicaGroup.start(SPEC, config)
        try:
            assert other.decode is not group.decode
            assert {id(server._decode) for server in group.servers.values()} == {
                id(group.decode)
            }
        finally:
            await other.stop()

    run_group(b"shared-decode-per-group", body)
