"""Integration tests for the sharded simulator harness (repro.sim.shard_cluster).

Covers routing across groups, online reconfiguration under live traffic
(graceful and crash-replacement), state durability across a replacement,
per-object correctness, and the exact match between the analytical
reconfiguration cost model and the simulator's message counters.
"""

from __future__ import annotations

import pytest

from repro.analysis.costs import CostModel
from repro.errors import SimulationError
from repro.net.simnet import LinkProfile
from repro.sim import ShardClusterOptions, build_shard_cluster
from repro.sim.shard_cluster import member_id, shard_id
from repro.spec import check_bft_linearizable

LOSSY = LinkProfile(
    min_delay=0.001, max_delay=0.02, drop_rate=0.05, reorder_rate=0.1
)


def spanning_objects(cluster, per_shard=2):
    """Object names guaranteed to cover every shard of the ring."""
    chosen: dict[str, list[str]] = {s: [] for s in cluster.shard_ids}
    index = 0
    while any(len(objs) < per_shard for objs in chosen.values()):
        obj = f"obj-{index}"
        owner = cluster.ring.shard_for(obj)
        if len(chosen[owner]) < per_shard:
            chosen[owner].append(obj)
        index += 1
    return [obj for objs in chosen.values() for obj in objs]


class TestOptions:
    def test_rejects_zero_shards(self):
        with pytest.raises(SimulationError):
            ShardClusterOptions(shards=0)

    def test_rejects_unknown_variant(self):
        with pytest.raises(SimulationError):
            ShardClusterOptions(variant="nope")

    @pytest.mark.parametrize("variant", ["strong", "fastpath"])
    def test_rejects_variants_the_shard_layer_does_not_host(self, variant):
        """These used to pass validation and silently run the base classes."""
        with pytest.raises(SimulationError, match="not hosted"):
            ShardClusterOptions(variant=variant)

    def test_build_rejects_options_plus_overrides(self):
        with pytest.raises(SimulationError):
            build_shard_cluster(ShardClusterOptions(), shards=3)


class TestRouting:
    def test_objects_span_shards_and_route_correctly(self):
        cluster = build_shard_cluster(shards=2, seed=11)
        objects = spanning_objects(cluster)
        owners = {cluster.ring.shard_for(obj) for obj in objects}
        assert owners == set(cluster.shard_ids)
        script = []
        for i, obj in enumerate(objects):
            script.append((obj, "write", ("client:w", 1, f"v{i}")))
            script.append((obj, "read", None))
        cluster.run_scripts({"w": script})
        node = cluster.routers["client:w"]
        reads = {
            step[0]: result
            for step, result in node.results
            if step[1] == "read"
        }
        for i, obj in enumerate(objects):
            assert reads[obj] == ("client:w", 1, f"v{i}"), obj

    def test_per_object_histories_bft_linearizable(self):
        cluster = build_shard_cluster(shards=2, seed=5, profile=LOSSY)
        objects = spanning_objects(cluster)
        scripts = {}
        for name in ("alice", "bob"):
            script = []
            for i, obj in enumerate(objects):
                script.append((obj, "write", (f"client:{name}", i + 1, name)))
                script.append((obj, "read", None))
            scripts[name] = script
        cluster.run_scripts(scripts)
        histories = cluster.merged_histories()
        assert set(histories) == set(objects)
        for obj, history in histories.items():
            result = check_bft_linearizable(history, max_b=1, obj=obj)
            assert result.ok, (obj, result.reason)


class TestReconfiguration:
    def test_graceful_replace_under_live_traffic(self):
        cluster = build_shard_cluster(shards=2, seed=23, handoff=0.2)
        objects = spanning_objects(cluster)
        script = []
        for i, obj in enumerate(objects):
            script.append((obj, "write", ("client:w", 1, f"v{i}")))
            script.append((obj, "read", None))
        target = shard_id(0)
        remove = member_id(0, 1)
        node = cluster.add_router("w")
        node.run_script(script)
        cluster.start_reconfiguration(
            target, remove=remove, add="replica:s0nX", crash_old=False
        )
        cluster.run()
        cluster.settle(1.0)
        assert cluster.directory.epoch(target) == 1
        assert "replica:s0nX" in cluster.directory.config(target).members
        joiner = cluster.replica_nodes["replica:s0nX"].replica
        assert joiner.ready and joiner.epoch == 1
        # The gracefully removed member knows it is out...
        assert cluster.replica_nodes[remove].replica.retired
        # ...but its key is NOT revoked: past signatures must keep verifying
        # and it must keep answering old-epoch traffic during handoff.
        assert cluster.template.registry.is_registered(remove)
        assert not cluster.template.registry.is_revoked(remove)
        # The untouched shard never advanced.
        assert cluster.directory.epoch(shard_id(1)) == 0

    def test_crash_replace_preserves_state(self):
        """A value written before the crash is readable from the new
        membership afterwards: state transfer carried it over."""
        cluster = build_shard_cluster(shards=1, seed=31, handoff=0.2)
        target = shard_id(0)
        crashed = member_id(0, 2)
        obj = "durable-object"
        cluster.run_scripts({"w": [(obj, "write", ("client:w", 1, "precious"))]})
        cluster.replica_nodes[crashed].crash()
        cluster.start_reconfiguration(
            target, remove=crashed, add="replica:s0nX", crash_old=False
        )
        cluster.run()
        node = cluster.routers["client:w"]
        node.run_script([(obj, "read", None)])
        cluster.run()
        assert node.results[-1][1] == ("client:w", 1, "precious")
        # The joiner itself holds the transferred value.
        joiner = cluster.replica_nodes["replica:s0nX"].replica
        state = joiner.inner.object_state(obj)
        assert state.data == ("client:w", 1, "precious")
        # Crash-replacement revokes the dead member's key.
        cluster2 = build_shard_cluster(shards=1, seed=32, handoff=0.2)
        cluster2.start_reconfiguration(
            shard_id(0),
            remove=member_id(0, 2),
            add="replica:s0nX",
            crash_old=True,
        )
        cluster2.run()
        # Revocation keeps the key registered (past signatures verify) but
        # bars it from signing anything new.
        assert cluster2.template.registry.is_revoked(member_id(0, 2))

    def test_sequential_reconfigurations_chain(self):
        cluster = build_shard_cluster(shards=1, seed=41, handoff=0.1)
        target = shard_id(0)
        cluster.start_reconfiguration(
            target, remove=member_id(0, 0), add="replica:s0nX"
        )
        cluster.run()
        cluster.start_reconfiguration(
            target, remove=member_id(0, 1), add="replica:s0nY"
        )
        cluster.run()
        cluster.settle(0.5)
        assert cluster.directory.epoch(target) == 2
        members = set(cluster.directory.config(target).members)
        assert {"replica:s0nX", "replica:s0nY"} <= members
        # Both epochs' entries chain from genesis in every live member.
        for replica in cluster.live_members(target):
            assert replica.epoch == 2
            assert [
                e.config.epoch for e in replica.directory.chain(target)
            ] == [1, 2]

    def test_rejects_removing_non_member(self):
        cluster = build_shard_cluster(shards=1, seed=43)
        with pytest.raises(SimulationError):
            cluster.start_reconfiguration(
                shard_id(0), remove="replica:stranger", add="replica:s0nX"
            )


class TestClosedFormCosts:
    def test_reconfigure_and_transfer_message_counts_exact(self):
        """On a reliable network the simulator's per-kind message counters
        match the analytical model exactly — no fudge factors."""
        cluster = build_shard_cluster(shards=1, seed=2, handoff=0.1)
        cluster.start_reconfiguration(
            shard_id(0), remove=member_id(0, 3), add="replica:s0nX"
        )
        cluster.run()
        cluster.settle(0.5)
        model = CostModel(quorums=cluster.template.quorums)
        kinds = cluster.network.stats.sent_by_kind
        reconfigure_sent = (
            kinds.get("CFG-SIGN-REQ", 0)
            + kinds.get("CFG-SIGN-REPLY", 0)
            + kinds.get("EPOCH-INSTALL", 0)
            + kinds.get("EPOCH-ACK", 0)
        )
        assert reconfigure_sent == model.reconfigure_messages()
        transfer_sent = kinds.get("XFER-REQ", 0) + kinds.get("XFER-REPLY", 0)
        assert transfer_sent == model.state_transfer_messages()
        assert kinds.get("CFG-SIGN-REPLY", 0) == model.reconfigure_signatures()
        entry = cluster.directory.chain(shard_id(0))[-1]
        assert len(entry.signatures) >= model.reconfigure_entry_signatures()

    def test_directory_fetch_message_count_exact(self):
        """A router refreshed by EPOCH-STALE fetches the chain with one
        DIR-REQ per member and gets one DIR-REPLY each: 2n."""
        cluster = build_shard_cluster(shards=1, seed=3, handoff=0.1)
        target = shard_id(0)
        # The router exists before the change, so its directory is genesis.
        node = cluster.add_router("w")
        cluster.start_reconfiguration(
            target, remove=member_id(0, 3), add="replica:s0nX"
        )
        cluster.run()
        cluster.settle(0.5)  # close the handoff window: epoch 0 now rebuffed
        # Now route traffic with the router's stale (genesis) directory.
        node.run_script([("obj", "write", ("client:w", 1, "v"))])
        cluster.run()
        model = CostModel(quorums=cluster.template.quorums)
        kinds = cluster.network.stats.sent_by_kind
        fetch_sent = kinds.get("DIR-REQ", 0) + kinds.get("DIR-REPLY", 0)
        assert fetch_sent == model.directory_fetch_messages()
        assert node.client.refreshes == 1
        assert node.client.epoch(target) == 1


class TestCapacityModel:
    def test_service_delay_gives_per_shard_capacity(self):
        """With a per-frame service cost, the same workload finishes faster
        when spread over more shards — the effect E19 charts."""
        elapsed = {}
        for shards in (1, 2):
            cluster = build_shard_cluster(
                shards=shards, seed=17, service_delay=0.002
            )
            objects = [f"obj-{i}" for i in range(12)]
            script = [
                (obj, "write", ("client:w", 1, None)) for obj in objects
            ]
            cluster.run_scripts({"w": script})
            elapsed[shards] = cluster.scheduler.now
        assert elapsed[2] < elapsed[1]
