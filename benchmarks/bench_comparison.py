"""E8 — Comparison against prior Byzantine-client protocols (§8).

Paper claims vs Phalanx [10]:
* BFT-BC needs 3f+1 replicas; Phalanx needs 4f+1.
* BFT-BC reads never return null and finish in a constant number of rounds
  regardless of concurrent writers; Phalanx masking reads can return null
  under incomplete/concurrent writes.
* Both take 3-phase writes (BFT-BC optimized: 2).

We run the same workload on BFT-BC (base + optimized), BQS, and Phalanx and
tabulate replicas used, phases, traffic, and null-read rates under a
Byzantine partial-writer.
"""

from __future__ import annotations

from repro import build_cluster
from repro.analysis import format_table
from repro.baselines.phalanx import NULL_READ
from repro.baselines.runner import build_bqs_cluster, build_phalanx_cluster
from repro.sim import read_script, write_script

from benchmarks.conftest import run_once

OPS = 8


def _honest_workload(cluster):
    node = cluster.add_client("w")
    node.run_script(write_script("client:w", OPS) + read_script(OPS))
    cluster.run(max_time=300)
    m = cluster.metrics
    stats = cluster.network.stats
    return {
        "replicas": cluster.config.n,
        "write_phases": m.phases_summary("write").p50,
        "read_phases": m.phases_summary("read").p50,
        "msgs_per_op": stats.messages_sent / (2 * OPS),
        "bytes_per_op": stats.bytes_sent / (2 * OPS),
    }


def test_e8_system_comparison(benchmark):
    def experiment():
        systems = {
            "BQS": build_bqs_cluster(f=1, seed=800),
            "Phalanx": build_phalanx_cluster(f=1, seed=800),
            "BFT-BC base": build_cluster(f=1, seed=800),
            "BFT-BC optimized": build_cluster(f=1, variant="optimized", seed=800),
        }
        rows = []
        results = {}
        for name, cluster in systems.items():
            r = _honest_workload(cluster)
            results[name] = r
            rows.append(
                [
                    name,
                    r["replicas"],
                    r["write_phases"],
                    r["read_phases"],
                    r["msgs_per_op"],
                    r["bytes_per_op"],
                ]
            )
        print()
        print(
            format_table(
                ["system", "replicas (f=1)", "write phases", "read phases",
                 "msgs/op", "bytes/op"],
                rows,
                title="E8: protocol comparison, honest single-writer workload",
            )
        )
        return results

    results = run_once(benchmark, experiment)
    # Replica counts: the paper's headline resource advantage.
    assert results["BFT-BC base"]["replicas"] == 4
    assert results["BFT-BC optimized"]["replicas"] == 4
    assert results["Phalanx"]["replicas"] == 5
    # Phase shape: BQS 2 (no Byz clients), Phalanx 3, BFT-BC 3 / optimized 2.
    assert results["BQS"]["write_phases"] == 2
    assert results["Phalanx"]["write_phases"] == 3
    assert results["BFT-BC base"]["write_phases"] == 3
    assert results["BFT-BC optimized"]["write_phases"] == 2
    # All reads are single-phase when there is no contention.
    for name in results:
        assert results[name]["read_phases"] == 1, name


def test_e8_null_reads_under_partial_writes(benchmark):
    """Reads under a Byzantine partial writer: Phalanx can return null,
    BFT-BC never does (§8's liveness comparison)."""

    def experiment():
        # Phalanx: fragment the replicas with distinct partial writes.
        from repro.baselines.messages import PhxWriteRequest
        from repro.baselines.statements import (
            phx_echo_statement,
            phx_write_request_statement,
        )
        from repro.core.timestamp import Timestamp
        from repro.crypto.hashing import hash_value

        phx = build_phalanx_cluster(f=1, seed=801)
        config = phx.config
        config.registry.register("client:evil")
        rids = config.quorums.replica_ids
        for index in range(4):
            ts = Timestamp(index + 1, "client:evil")
            value = ("client:evil", index, None)
            vh = hash_value(value)
            echo_sigs = tuple(
                config.scheme.sign(rid, phx_echo_statement(ts, vh))
                for rid in rids[:4]
            )
            wsig = config.scheme.sign(
                "client:evil", phx_write_request_statement(value, ts)
            )
            phx.replicas[rids[index]].handle(
                "client:evil",
                PhxWriteRequest(value=value, ts=ts, echo_sigs=echo_sigs, signature=wsig),
            )
        phx.network.crash(rids[4])
        reader = phx.add_client("r")
        reader.run_script(read_script(3), think_time=0.1)
        phx.run(max_time=120)
        phx_nulls = reader.client.null_reads

        # BFT-BC: the worst partial-write fragmentation it admits.
        from repro.byzantine import PartialWriteAttack

        bft = build_cluster(f=1, seed=801)
        attack = bft.add_adversary(PartialWriteAttack("client:evil", bft.config))
        bft.run(max_time=120)
        bft.network.crash("replica:3")
        reader2 = bft.add_client("r")
        reader2.run_script(read_script(3), think_time=0.1)
        bft.run(max_time=120)
        bft_nulls = sum(
            1
            for rec in bft.history.operations()
            if rec.op == "read" and rec.result == NULL_READ
        )
        bft_reads_done = sum(
            1 for rec in bft.history.operations() if rec.op == "read" and rec.complete
        )
        print()
        print(
            format_table(
                ["system", "reads attempted", "null reads"],
                [
                    ["Phalanx", 3, phx_nulls],
                    ["BFT-BC", bft_reads_done, bft_nulls],
                ],
                title="E8b: reads under Byzantine partial writes "
                "(paper: BFT-BC reads never return null)",
            )
        )
        return phx_nulls, bft_nulls, bft_reads_done

    phx_nulls, bft_nulls, bft_reads_done = run_once(benchmark, experiment)
    assert phx_nulls > 0  # Phalanx's known weakness reproduced
    assert bft_nulls == 0
    assert bft_reads_done == 3
