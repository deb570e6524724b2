"""The one simulated harness: one run loop, one reactive host, one
multi-object driver under Cluster / ShardCluster / SimLoadHarness and the
baseline builders."""

from __future__ import annotations

import random

import pytest

from repro.baselines.runner import build_bqs_cluster, build_phalanx_cluster
from repro.core import make_system
from repro.core.messages import ReadRequest
from repro.core.multiobject import MultiObjectClient, MultiObjectReplica
from repro.errors import OperationFailedError
from repro.load import LoadProfile, SimLoadHarness
from repro.net.simnet import LinkProfile
from repro.sim import (
    Cluster,
    MultiObjectClientNode,
    ReplicaHost,
    SimHarness,
    build_cluster,
    build_shard_cluster,
)

OBJECTS = 4


def seeded_script(seed: int, steps: int = 40) -> list[tuple[str, str, object]]:
    rng = random.Random(f"sim-harness/{seed}")
    script: list[tuple[str, str, object]] = []
    for index in range(steps):
        obj = f"obj-{rng.randrange(OBJECTS)}"
        if rng.random() < 0.6:
            script.append((obj, "write", f"v{index}"))
        else:
            script.append((obj, "read", None))
    return script


def per_object(node: MultiObjectClientNode) -> dict[str, list[tuple[str, object]]]:
    """Results grouped by object: per-object order is the script's (§4.1),
    whatever the cross-object interleaving was."""
    out: dict[str, list[tuple[str, object]]] = {}
    for (obj, kind, _value), result in node.results:
        out.setdefault(obj, []).append((kind, result))
    return out


class TestOneDriver:
    @pytest.mark.parametrize("seed", [3, 14])
    def test_same_script_over_a_plain_group_and_a_one_shard_router(self, seed):
        """``MultiObjectClientNode`` is the only multi-object driver: the same
        script gives the same per-step results whether the node wraps a
        ``MultiObjectClient`` or a ``ShardRouter`` over a single shard."""
        script = seeded_script(seed)

        plain = SimHarness(profile=None, seed=seed)
        config = make_system(f=1, seed=b"sim-harness")
        for rid in config.quorums.replica_ids:
            ReplicaHost(MultiObjectReplica(rid, config), plain.network)
        config.registry.register("client:w")
        plain_node = MultiObjectClientNode(
            MultiObjectClient("client:w", config), plain.network, plain.scheduler
        )
        plain.add_done_check(lambda: plain_node.done)
        plain_node.run_script(script)
        plain.run()

        sharded = build_shard_cluster(shards=1, seed=seed)
        shard_node = sharded.add_router("w")
        assert type(shard_node) is MultiObjectClientNode
        shard_node.run_script(script)
        sharded.run()

        assert len(plain_node.results) == len(shard_node.results) == len(script)
        assert per_object(plain_node) == per_object(shard_node)


class _Recorder:
    """A reactive state machine that only notes when it handled what."""

    node_id = "replica:stub"

    def __init__(self, harness: SimHarness) -> None:
        self.harness = harness
        self.handled: list[tuple[float, bytes]] = []

    def handle(self, src: str, message: ReadRequest) -> None:
        self.handled.append((self.harness.scheduler.now, message.nonce))


class TestOneHost:
    def test_service_delay_is_a_single_server_queue_and_crash_drops_the_rest(self):
        delay, frames = 0.25, 6
        harness = SimHarness(
            profile=LinkProfile(min_delay=0.0, max_delay=0.0), seed=0
        )
        stub = _Recorder(harness)
        host = ReplicaHost(
            stub, harness.network, harness.scheduler, service_delay=delay
        )
        for index in range(frames):
            harness.network.send(
                "client:a", host.node_id, ReadRequest(nonce=bytes([index]))
            )
        harness.settle(3 * delay)
        # Frames arrive together at t=0 and are served back to back.
        assert stub.handled == [
            (pytest.approx((k + 1) * delay), bytes([k])) for k in range(3)
        ]
        host.crash()
        assert host.down
        harness.network.send("client:a", host.node_id, ReadRequest(nonce=b"late"))
        harness.settle(10 * delay)
        assert len(stub.handled) == 3  # queued and new frames alike are dropped

    def test_every_harness_hosts_replicas_on_the_one_host(self):
        hosts = [
            *build_cluster().replica_nodes.values(),
            *build_bqs_cluster().replica_nodes.values(),
            *build_shard_cluster(shards=1).replica_nodes.values(),
            *SimLoadHarness(LoadProfile(rate=1.0, duration=0.1)).replicas,
        ]
        assert hosts and all(isinstance(host, ReplicaHost) for host in hosts)


class TestOneRunLoop:
    def test_settle_advances_an_idle_clock_by_exactly_the_duration(self):
        cluster = build_cluster()
        assert cluster.scheduler.pending == 0
        before = cluster.scheduler.now
        cluster.settle(1.0)
        assert cluster.scheduler.now == before + 1.0

    @pytest.mark.parametrize("build", [build_bqs_cluster, build_phalanx_cluster])
    def test_baselines_run_on_cluster_and_an_extra_done_check_gates_run(self, build):
        cluster = build(seed=5)
        assert type(cluster) is Cluster
        released = []
        cluster.add_done_check(lambda: bool(released))
        writer = cluster.add_client("w")
        writer.run_script([("write", "x"), ("read", None)])
        with pytest.raises(OperationFailedError, match="busy"):
            cluster.run(max_time=5.0)
        assert writer.done and writer.results[-1] == ("read", "x")
        released.append(True)
        cluster.run(max_time=5.0)
