#!/usr/bin/env python3
"""Scenario: a Byzantine-fault-tolerant key-value store.

The paper presents one object for clarity but notes the system "can deal
with multiple objects; each object would have a distinct identifier" (§3.2).
This example builds exactly that: each key is an independent BFT-BC object,
hosted by the same 3f+1 replicas, with per-key signature scoping so that
certificates earned on one key can never be replayed against another.

Operations on different keys proceed concurrently; operations on the same
key are sequential and atomic.

Run:  python examples/kv_store.py
"""

from repro import (
    LinkProfile,
    MultiObjectClient,
    MultiObjectClientNode,
    MultiObjectReplica,
    OptimizedBftBcClient,
    OptimizedBftBcReplica,
    ReplicaHost,
    Scheduler,
    SimNetwork,
    make_system,
)


def build_kv_cluster(f: int = 1, seed: int = 11):
    config = make_system(f, seed=b"kv-example")
    scheduler = Scheduler()
    network = SimNetwork(
        scheduler, profile=LinkProfile(drop_rate=0.05, max_delay=0.01), seed=seed
    )
    replicas = {}
    for rid in config.quorums.replica_ids:
        replica = MultiObjectReplica(rid, config, replica_cls=OptimizedBftBcReplica)
        replicas[rid] = replica
        ReplicaHost(replica, network)
    return config, scheduler, network, replicas


def main() -> None:
    config, scheduler, network, replicas = build_kv_cluster()
    print(f"kv store: {config.quorums.describe()}, optimized protocol, "
          "5% message loss\n")

    service = MultiObjectClient(
        "client:frontend", config, client_cls=OptimizedBftBcClient
    )
    node = MultiObjectClientNode(service, network, scheduler, max_in_flight=8)

    me = "client:frontend"
    script = [
        ("users/alice", "write", (me, 1, {"name": "Alice", "plan": "pro"})),
        ("users/bob", "write", (me, 2, {"name": "Bob", "plan": "free"})),
        ("counters/signups", "write", (me, 3, 2)),
        ("users/alice", "write", (me, 4, {"name": "Alice", "plan": "enterprise"})),
        ("users/alice", "read", None),
        ("users/bob", "read", None),
        ("counters/signups", "read", None),
        ("users/carol", "read", None),  # never written: initial state
    ]
    node.run_script(script)
    scheduler.run(until=60, stop_when=lambda: node.done)
    assert node.done, "workload did not complete"

    print("results (concurrent across keys, sequential per key):")
    for (key, kind, _), result in node.results:
        if kind == "read":
            shown = result[2] if isinstance(result, tuple) else result
            print(f"  GET {key:18s} -> {shown!r}")
        else:
            print(f"  PUT {key:18s} at ts={result}")

    replica = replicas["replica:0"]
    print(f"\nobjects hosted per replica : {sorted(replica.objects)}")
    print(f"messages on the wire       : {network.stats.messages_sent} "
          f"({network.stats.messages_dropped} dropped, retransmission recovered)")
    per_key_ts = {
        obj: str(replica.object_state(obj).pcert.ts)
        for obj in sorted(replica.objects)
    }
    print(f"per-key timestamps (independent counters): {per_key_ts}")


if __name__ == "__main__":
    main()
