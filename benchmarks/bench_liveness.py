"""E6 — Liveness under attack (§5.1).

Paper claims: good clients always complete — reads in the time of two
client RPC round-trips to 2f+1 replicas, writes in three — regardless of
what Byzantine clients are doing, because phase-1/3 requests are answered
unconditionally and a good client's phase-2 request is never refused.

We run a good client's workload concurrently with each §3.2 attack (plus f
crashed replicas) and report completed operations and latency in units of
one network round-trip.
"""

from __future__ import annotations

from repro import LinkProfile, build_cluster
from repro.analysis import format_table
from repro.byzantine import (
    CrashedReplica,
    EquivocationAttack,
    LurkingWriteAttack,
    PartialWriteAttack,
    TimestampExhaustionAttack,
)
from repro.sim import read_script, write_script

from benchmarks.conftest import run_once

#: Fixed symmetric delay so one round-trip is exactly 2 * DELAY.
DELAY = 0.005
RTT = 2 * DELAY
OPS = 5

ATTACKS = {
    "none": None,
    "equivocation": EquivocationAttack,
    "partial-write": PartialWriteAttack,
    "ts-exhaustion": TimestampExhaustionAttack,
    "lurking-writes": LurkingWriteAttack,
}


def _run(attack_cls, *, crashed: bool, seed: int = 600):
    overrides = {3: CrashedReplica} if crashed else {}
    cluster = build_cluster(
        f=1,
        seed=seed,
        profile=LinkProfile(min_delay=DELAY, max_delay=DELAY),
        replica_overrides=overrides,
    )
    if attack_cls is not None:
        cluster.add_adversary(attack_cls("client:evil", cluster.config))
    node = cluster.add_client("good")
    node.run_script(write_script("client:good", OPS) + read_script(OPS))
    cluster.run(max_time=300)
    writes = cluster.metrics.latency_summary("write")
    reads = cluster.metrics.latency_summary("read")
    return writes, reads


def test_e6_liveness_under_attack(benchmark):
    def experiment():
        rows = []
        results = {}
        for name, attack_cls in ATTACKS.items():
            writes, reads = _run(attack_cls, crashed=True)
            results[name] = (writes, reads)
            rows.append(
                [
                    name,
                    writes.count,
                    writes.p50 / RTT,
                    reads.count,
                    reads.p50 / RTT,
                    reads.maximum / RTT,
                ]
            )
        print()
        print(
            format_table(
                ["attack", "writes done", "write RTTs p50",
                 "reads done", "read RTTs p50", "read RTTs max"],
                rows,
                title="E6: good-client progress under each attack + 1 crashed "
                "replica (paper: writes 3 RTTs, reads <= 2 RTTs)",
            )
        )
        return results

    results = run_once(benchmark, experiment)
    for name, (writes, reads) in results.items():
        assert writes.count == OPS, name
        assert reads.count == OPS, name
        # Writes: three RPC round-trips (§5.1); allow a little slack for the
        # retransmit timer granularity.
        assert writes.p50 <= 3 * RTT * 1.5, (name, writes.p50)
        # Reads: at most two round-trips even under attack.
        assert reads.maximum <= 2 * RTT * 1.5, (name, reads.maximum)


def test_e6b_reads_constant_rounds_under_write_storm(benchmark):
    """§8: "reads terminate in a constant number of rounds, independently of
    the behavior of concurrent writers" (the Martin et al. comparison).
    A reader runs against four concurrent heavy writers; every read must
    finish in <= 2 phases."""

    def experiment():
        cluster = build_cluster(
            f=1,
            seed=601,
            profile=LinkProfile(min_delay=0.001, max_delay=0.02),
        )
        scripts = {
            f"w{i}": write_script(f"client:w{i}", 8) for i in range(4)
        }
        reader = cluster.add_client("reader")
        reader.run_script(read_script(10), think_time=0.005)
        cluster.run_scripts(scripts, max_time=300)
        reads = cluster.metrics.by_kind("read")
        phases = [s.phases for s in reads]
        from collections import Counter

        histogram = Counter(phases)
        print()
        print(
            format_table(
                ["read phases", "count"],
                sorted(histogram.items()),
                title="E6b: read rounds under a 4-writer storm "
                "(paper: constant, <= 2)",
            )
        )
        return phases

    phases = run_once(benchmark, experiment)
    assert len(phases) == 10
    assert max(phases) <= 2
