"""The one protocol-over-sockets loop (``repro.net.mux.drive``) and the
endpoint under it.

* fake-role unit tests of the loop itself: the quiet-interval re-dial +
  retransmit, the deadline, and delivery of a queued burst;
* endpoint bookkeeping: live-reader-task bound under reconnect churn,
  ``unregister``;
* parity: the same seeded script through every client stack built on the
  loop commits the same timestamps and leaves the same register state.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import BftBcClient, BftBcReplica, make_system
from repro.core.operations import Send
from repro.errors import OperationFailedError
from repro.net.asyncio_transport import AsyncClient
from repro.net.mux import MuxEndpoint, PipelinedClient, drive
from repro.net.shard_transport import AsyncShardRouter, ShardReplicaServer
from repro.shard import (
    HashRing,
    ShardConfig,
    ShardDirectory,
    ShardReplica,
    ShardRouter,
)


def run(coro):
    return asyncio.run(coro)


class FakeEndpoint:
    """Records what the loop asks of its endpoint; ``answer`` decides which
    sends come back as replies on the inbox."""

    def __init__(self, inbox, answer=lambda send: None):
        self.inbox = inbox
        self.answer = answer
        self.log: list[str] = []

    async def send(self, node_id, sends):
        sends = list(sends)
        self.log.append(f"send:{len(sends)}")
        for send in sends:
            reply = self.answer(send)
            if reply is not None:
                self.inbox.put_nowait(reply)

    async def reconnect_broken(self):
        self.log.append("reconnect")


class FakeRole:
    """begin/deliver/retransmit/done with nothing behind it: done after
    ``need`` deliveries."""

    def __init__(self, need=1):
        self.need = need
        self.delivered: list[tuple[str, str]] = []
        self.retransmits = 0

    def begin(self):
        return [Send(dest="replica:0", message="request")]

    def done(self):
        return len(self.delivered) >= self.need

    def deliver(self, src, message):
        self.delivered.append((src, message))
        return []

    def retransmit(self):
        self.retransmits += 1
        return [Send(dest="replica:0", message="again")]


async def drive_fake(endpoint, role, **kwargs):
    await drive(
        endpoint,
        "client:fake",
        endpoint.inbox,
        role.begin(),
        done=role.done,
        deliver=role.deliver,
        retransmit=role.retransmit,
        **kwargs,
    )


class TestDriveLoop:
    def test_quiet_interval_redials_then_retransmits(self):
        async def main():
            # The first request is lost; only the retransmission is answered.
            endpoint = FakeEndpoint(
                asyncio.Queue(),
                answer=lambda send: ("replica:0", "reply")
                if send.message == "again"
                else None,
            )
            role = FakeRole()
            await drive_fake(endpoint, role, interval=0.02, timeout=5.0)
            assert endpoint.log == ["send:1", "reconnect", "send:1", "send:0"]
            assert role.retransmits == 1
            assert role.delivered == [("replica:0", "reply")]

        run(main())

    def test_deadline_raises_operation_failed(self):
        async def main():
            endpoint = FakeEndpoint(asyncio.Queue())  # nobody ever answers
            role = FakeRole()
            with pytest.raises(OperationFailedError, match="timed out"):
                await drive_fake(endpoint, role, interval=0.01, timeout=0.05)
            assert role.retransmits >= 1
            assert not role.delivered

        run(main())

    def test_done_before_start_sends_and_returns(self):
        async def main():
            endpoint = FakeEndpoint(asyncio.Queue())
            await drive_fake(endpoint, FakeRole(need=0), interval=1, timeout=1)
            assert endpoint.log == ["send:1"]

        run(main())

    def test_without_verifier_no_batch_pass(self):
        async def main():
            config = make_system(f=1, seed=b"drive-burst-off")
            replica = BftBcReplica("replica:0", config)
            config.registry.register("client:a")
            role = FakeRole(need=2)
            reply = replica.handle(
                "client:a", BftBcClient("client:a", config).begin_read()[0].message
            )
            endpoint = FakeEndpoint(asyncio.Queue())
            endpoint.inbox.put_nowait(("replica:0", reply))
            endpoint.inbox.put_nowait(("replica:0", reply))
            await drive_fake(endpoint, role, interval=1.0, timeout=5.0)
            assert len(role.delivered) == 2
            assert config.verifier.stats.batch_calls == 0

        run(main())


async def start_cluster(config):
    group = await ReplicaGroup.start(DeploymentSpec(transport="tcp"), config)
    return group, group.addrs


class TestEndpointBookkeeping:
    def test_reader_tasks_stay_bounded_under_reconnect_churn(self):
        """A flapping link costs one reader task per *live* connection,
        not one per re-dial ever made."""

        async def main():
            config = make_system(f=1, seed=b"mux-churn")
            group, addrs = await start_cluster(config)
            endpoint = MuxEndpoint(addrs)
            await endpoint.connect()
            victim = "replica:1"
            flaps = 12
            for _ in range(flaps):
                await group.crash(victim)
                await asyncio.sleep(0.01)  # the read loop sees EOF and exits
                await group.recover(victim)
                await endpoint.reconnect_broken()
                assert len(endpoint._reader_tasks) <= len(addrs)
            assert endpoint.reconnects == flaps
            assert len(endpoint._reader_tasks) == len(addrs)
            await endpoint.close()
            await asyncio.sleep(0)
            assert not endpoint._reader_tasks
            await group.stop()

        run(main())

    def test_unregister_frees_the_id_and_drops_late_replies(self):
        async def main():
            config = make_system(f=1, seed=b"mux-unregister")
            config.registry.register("client:a")
            group, addrs = await start_cluster(config)
            endpoint = MuxEndpoint(addrs)
            await endpoint.connect()
            endpoint.register("client:a")
            with pytest.raises(ValueError):
                endpoint.register("client:a")
            endpoint.unregister("client:a")
            endpoint.unregister("client:a")  # idempotent
            # Replies to a released id are counted, not delivered.
            client = BftBcClient("client:a", config)
            await endpoint.send("client:a", client.begin_read())
            for _ in range(100):
                if endpoint.unroutable >= len(addrs):
                    break
                await asyncio.sleep(0.01)
            assert endpoint.unroutable == len(addrs)
            inbox = endpoint.register("client:a")  # the id is free again
            assert inbox.empty()
            await endpoint.close()
            await group.stop()

        run(main())


# -- parity -------------------------------------------------------------------

CLIENT = "client:p"
OBJ = "x"


def seeded_script(seed=20060625, ops=10):
    rng = random.Random(seed)
    script = [("write", (CLIENT, 0, "first"))]
    for seq in range(1, ops):
        if rng.random() < 0.6:
            script.append(("write", (CLIENT, seq, rng.getrandbits(32))))
        else:
            script.append(("read", None))
    return script


def register_state(snapshot):
    """The register a replica holds, modulo what the schedule is free to
    vary (which 2f+1 signatures a certificate carries, the signing logs)."""
    reduced = {}
    for key, value in snapshot.items():
        if key in ("spr", "swr"):
            continue
        if key.endswith("cert"):
            reduced[key] = None if value is None else tuple(value[:2])
        else:
            reduced[key] = value
    return reduced


async def settled(snapshots, attempts=200):
    """Poll until all replicas hold the same register (late frames drain)."""
    for _ in range(attempts):
        states = [register_state(snapshot()) for snapshot in snapshots]
        if all(state == states[0] for state in states):
            return states
        await asyncio.sleep(0.01)
    raise AssertionError("replicas never converged")


async def run_steps(write, read, script):
    return [
        await (write(value) if kind == "write" else read())
        for kind, value in script
    ]


def through_async_client(script):
    async def main():
        config = make_system(f=1, seed=b"parity")
        config.registry.register(CLIENT)
        group, addrs = await start_cluster(config)
        client = AsyncClient(BftBcClient(CLIENT, config), addrs)
        await client.connect()
        results = await run_steps(client.write, client.read, script)
        states = await settled(
            [replica.snapshot_wire for replica in group.replicas.values()]
        )
        await client.close()
        await group.stop()
        return results, states

    return run(main())


def through_pipelined_client(script):
    async def main():
        config = make_system(f=1, seed=b"parity")
        config.registry.register(CLIENT)
        group, addrs = await start_cluster(config)
        pipe = PipelinedClient([BftBcClient(CLIENT, config)], addrs)
        await pipe.connect()
        records = await pipe.run_script(script)
        assert [record.index for record in records] == list(range(len(script)))
        states = await settled(
            [replica.snapshot_wire for replica in group.replicas.values()]
        )
        await pipe.close()
        await group.stop()
        return [record.result for record in records], states

    return run(main())


def through_shard_router(script):
    async def main():
        template = make_system(f=1, seed=b"parity")
        members = tuple(f"replica:s0n{i}" for i in range(4))
        for node_id in members + (CLIENT,):
            template.registry.register(node_id)
        genesis = {
            "shard:0": ShardConfig(shard="shard:0", epoch=0, members=members, f=1)
        }
        servers, addrs = {}, {}
        for rid in members:
            server = ShardReplicaServer(
                ShardReplica(
                    rid,
                    "shard:0",
                    ShardDirectory(genesis, template.scheme),
                    template,
                )
            )
            addrs[rid] = await server.start()
            servers[rid] = server
        router = AsyncShardRouter(
            ShardRouter(
                CLIENT,
                HashRing(tuple(genesis)),
                ShardDirectory(genesis, template.scheme),
                template,
            ),
            addrs,
        )
        results = await run_steps(
            lambda value: router.write(OBJ, value),
            lambda: router.read(OBJ),
            script,
        )
        states = await settled(
            [
                server.replica.inner.object_state(OBJ).snapshot_wire
                for server in servers.values()
            ]
        )
        await router.close()
        for server in servers.values():
            await server.stop()
        return results, states

    return run(main())


def test_every_client_stack_commits_the_same_history():
    script = seeded_script()
    plain_results, plain_states = through_async_client(script)
    piped_results, piped_states = through_pipelined_client(script)
    shard_results, shard_states = through_shard_router(script)
    # Identical winning timestamps (writes) and values (reads), op by op.
    assert plain_results == piped_results == shard_results
    stamps = [r for (kind, _), r in zip(script, plain_results) if kind == "write"]
    assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
    # Identical register state at every replica of every stack.
    assert plain_states[0] == piped_states[0] == shard_states[0]


# -- the same loop drives a Byzantine client ----------------------------------


async def drive_adversary(addrs, machine, *, interval=0.01, timeout=30.0):
    """Host a sans-I/O adversary on sockets: ``drive`` unchanged, its
    ``done`` / ``deliver`` / ``retransmit`` are the machine's."""
    endpoint = MuxEndpoint(addrs)
    inbox = endpoint.register(machine.node_id)
    await endpoint.connect()
    try:
        await drive(
            endpoint,
            machine.node_id,
            inbox,
            machine.start(),
            done=lambda: machine.done,
            deliver=machine.deliver,
            retransmit=machine.retransmit,
            interval=interval,
            timeout=timeout,
        )
    finally:
        await endpoint.close()
    return machine


@pytest.mark.parametrize("variant", ["base", "fastpath"])
def test_byzantine_clients_on_real_sockets(variant):
    """A lurking-write client, its colluder and an equivocator, over TCP:
    the hoard is exactly the variant's bound, the replicas still agree
    after the replay, and the equivocator assembles at most one
    certificate.  A short tick interval keeps the refused attempts cheap
    (budgets are tick counts, not seconds)."""
    from repro import DeploymentSpec, deploy
    from repro.byzantine import Colluder, EquivocationAttack, LurkingWriteAttack
    from repro.chaos.plan import MAX_B

    spec = DeploymentSpec(transport="tcp", variant=variant, seed=77)
    with deploy(spec) as dep:
        lurker = run(
            drive_adversary(
                dep.addrs, LurkingWriteAttack("client:evil", dep.config, variant)
            )
        )
        assert len(lurker.hoard) == MAX_B[variant]
        assert len({captured.ts for captured in lurker.hoard}) == 1

        dep.config.revoke_writer(lurker.node_id)  # the §4.1.1 stop event
        run(
            drive_adversary(
                dep.addrs, Colluder("client:colluder", dep.config, lurker.hoard)
            )
        )
        assert dep.read() in [captured.value for captured in lurker.hoard]
        dep.write(("client:pipe0", 1, None))
        deadline = time.monotonic() + 5.0
        while len(set(dep.fingerprints().values())) != 1:
            assert time.monotonic() < deadline, dep.fingerprints()
            time.sleep(0.01)

        equivocator = run(
            drive_adversary(
                dep.addrs, EquivocationAttack("client:evil2", dep.config, variant)
            )
        )
        assert sum(len(s) for s in equivocator.signatures.values()) >= 1
        assert equivocator.quorums_reached <= 1
        assert dep.read() == ("client:pipe0", 1, None)
