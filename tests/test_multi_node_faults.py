"""Multi-object simulator adapters under network faults.

The shard layer leans on :mod:`repro.sim.multi_node` as the per-group
protocol driver, so this file pins down the adapter's behaviour under the
conditions the shard cluster actually produces: two independent replica
groups sharing one lossy, reordering network, several clients with
overlapping object working sets, and retransmission doing the liveness
work.  Each object's recorded history must stay BFT-linearizable.
"""

from __future__ import annotations

import pytest

from repro.core import MultiObjectClient, MultiObjectReplica, make_system
from repro.net.simnet import LinkProfile, SimNetwork
from repro.sim import MultiObjectClientNode, ReplicaHost, Scheduler
from repro.spec import History, check_bft_linearizable


def build_group(group: str, network: SimNetwork, *, f: int = 1, seed: bytes):
    """One replica group with its own keys on a shared network."""
    # Name each group's replicas explicitly so two groups coexist on one
    # network without id collisions.
    from repro.core.quorum import QuorumSystem

    ids = tuple(f"replica:{group}n{i}" for i in range(3 * f + 1))
    quorums = QuorumSystem(
        n=3 * f + 1, f=f, quorum_size=2 * f + 1, members=ids
    )
    config = make_system(f=f, seed=seed, quorums=quorums)
    nodes = {}
    for rid in quorums.replica_ids:
        replica = MultiObjectReplica(rid, config)
        nodes[rid] = ReplicaHost(replica, network)
    return config, nodes


LOSSY = LinkProfile(
    min_delay=0.001, max_delay=0.03, drop_rate=0.08, reorder_rate=0.15
)


@pytest.mark.parametrize("seed", [7, 21])
def test_two_groups_under_drops_and_reorders(seed):
    """Two replica groups, three clients, lossy links: per-object BFT-lin.

    Clients alpha and beta contend on the same objects within each group;
    gamma writes a disjoint object per group.  Despite 8% drops and 15%
    reorders, every script completes via retransmission and every
    per-object history is BFT-linearizable with the base bound b=1.
    """
    scheduler = Scheduler()
    network = SimNetwork(scheduler, profile=LOSSY, seed=seed)
    config_a, _ = build_group("a", network, seed=b"group-a")
    config_b, _ = build_group("b", network, seed=b"group-b")

    clients = {}
    for name in ("alpha", "beta", "gamma"):
        cid = f"client:{name}"
        for config in (config_a, config_b):
            config.registry.register(cid)
        clients[name] = {
            "a": MultiObjectClientNode(
                MultiObjectClient(f"{cid}", config_a),
                network,
                scheduler,
                record_history=True,
            ),
        }
    # A second network identity per client for group b (one node id per
    # network registration, so group-b traffic uses a ":b" suffix).
    for name in ("alpha", "beta", "gamma"):
        cid = f"client:{name}:b"
        config_a.registry.register(cid)
        config_b.registry.register(cid)
        clients[name]["b"] = MultiObjectClientNode(
            MultiObjectClient(cid, config_b),
            network,
            scheduler,
            record_history=True,
        )

    scripts = {
        "alpha": [
            ("hot", "write", ("client:alpha", 1, "a1")),
            ("hot", "read", None),
            ("cold", "write", ("client:alpha", 2, "a2")),
        ],
        "beta": [
            ("hot", "write", ("client:beta", 1, "b1")),
            ("cold", "read", None),
            ("hot", "read", None),
        ],
        "gamma": [
            ("solo", "write", ("client:gamma", 1, "g1")),
            ("solo", "read", None),
        ],
    }
    for name, steps in scripts.items():
        clients[name]["a"].run_script(list(steps))
        suffixed = [
            (obj, kind, None if value is None else (f"client:{name}:b",) + value[1:])
            for obj, kind, value in steps
        ]
        clients[name]["b"].run_script(suffixed)

    all_nodes = [node for pair in clients.values() for node in pair.values()]
    scheduler.run(until=120, stop_when=lambda: all(n.done for n in all_nodes))
    assert all(n.done for n in all_nodes), [
        n.node_id for n in all_nodes if not n.done
    ]
    assert network.stats.messages_dropped > 0, "drops never fired; vacuous"
    assert network.stats.messages_reordered > 0, "reorders never fired"

    # Per-object, per-group BFT-linearizability: merge each object's
    # history across the clients of that group and check with b=1.
    for group in ("a", "b"):
        merged: dict[str, list] = {}
        for pair in clients.values():
            for obj, history in pair[group].histories.items():
                merged.setdefault(obj, []).extend(history.events)
        for obj, events in merged.items():
            history = History(sorted(events, key=lambda e: e.time))
            result = check_bft_linearizable(history, max_b=1, obj=obj)
            assert result.ok, (group, obj, result.reason)


def test_crashed_replica_does_not_block_group():
    """With f=1, one crashed replica per group leaves both groups live."""
    scheduler = Scheduler()
    network = SimNetwork(scheduler, profile=LinkProfile.lossy(0.05), seed=3)
    config_a, nodes_a = build_group("a", network, seed=b"group-a")
    config_b, nodes_b = build_group("b", network, seed=b"group-b")
    network.crash("replica:an0")
    network.crash("replica:bn3")

    config_a.registry.register("client:w")
    config_b.registry.register("client:w:b")
    node_a = MultiObjectClientNode(
        MultiObjectClient("client:w", config_a), network, scheduler
    )
    node_b = MultiObjectClientNode(
        MultiObjectClient("client:w:b", config_b), network, scheduler
    )
    node_a.run_script(
        [("x", "write", ("client:w", 1, "v")), ("x", "read", None)]
    )
    node_b.run_script(
        [("y", "write", ("client:w:b", 1, "w")), ("y", "read", None)]
    )
    scheduler.run(until=120, stop_when=lambda: node_a.done and node_b.done)
    assert node_a.done and node_b.done
    assert node_a.results[-1][1] == ("client:w", 1, "v")
    assert node_b.results[-1][1] == ("client:w:b", 1, "w")
