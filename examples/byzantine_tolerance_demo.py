#!/usr/bin/env python3
"""Demonstration: every §3.2 Byzantine-client attack, against both BFT-BC
and the unprotected BQS baseline.

This is the paper's core motivation made executable:

1. equivocation       — same timestamp, two values.
2. partial writes     — install the value at a single replica.
3. timestamp exhaustion — propose ts = 10^15.
4. lurking writes     — hoard a prepared write, hand it to a colluder,
                        get removed, have the colluder replay it.

Run:  python examples/byzantine_tolerance_demo.py
"""

from repro import (
    BqsEquivocationAttack,
    BqsTimestampExhaustionAttack,
    Colluder,
    EquivocationAttack,
    LurkingWriteAttack,
    PartialWriteAttack,
    TimestampExhaustionAttack,
    build_bqs_cluster,
    build_cluster,
    check_bft_linearizable,
    check_register_linearizable,
    count_lurking_writes,
    read_script,
)


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def demo_equivocation() -> None:
    banner("Attack 1: equivocation (two values, one timestamp)")

    bqs = build_bqs_cluster(f=1, seed=1)
    attack = bqs.add_adversary(BqsEquivocationAttack("client:evil", bqs.config))
    bqs.run(max_time=30)
    r1, r2 = bqs.add_client("r1"), bqs.add_client("r2")
    r1.run_script(read_script(1))
    r2.run_script(read_script(1), start_delay=0.2)
    bqs.run(max_time=30)
    print(f"BQS   : reader-1 saw {r1.client.last_result!r}, "
          f"reader-2 saw {r2.client.last_result!r}")
    print(f"BQS   : linearizable? "
          f"{check_register_linearizable(bqs.history).ok}  <-- broken")

    bft = build_cluster(f=1, seed=1)
    attack2 = bft.add_adversary(EquivocationAttack("client:evil", bft.config))
    bft.run(max_time=30)
    print(f"BFT-BC: prepare certificates the attacker could assemble: "
          f"{attack2.quorums_reached} (needs a quorum per value; "
          f"got {len(attack2.signatures['A'])} + {len(attack2.signatures['B'])} "
          f"signatures for the two values)")


def demo_partial_write() -> None:
    banner("Attack 2: partial write (one replica only)")
    bft = build_cluster(f=1, seed=2)
    attack = bft.add_adversary(PartialWriteAttack("client:evil", bft.config))
    bft.run(max_time=30)
    holders = [rid for rid, r in bft.replicas.items() if r.data is not None]
    print(f"BFT-BC: value installed at {holders} only")
    bft.network.crash("replica:3")  # force the holder into read quorums
    reader = bft.add_client("reader")
    reader.run_script(read_script(1))
    bft.run(max_time=30)
    print(f"BFT-BC: reader still completed, got {reader.client.last_result!r}; "
          "its write-back repaired the stragglers")
    holders = [rid for rid, r in bft.replicas.items() if r.data is not None]
    print(f"BFT-BC: value now at {holders}")


def demo_timestamp_exhaustion() -> None:
    banner("Attack 3: timestamp exhaustion (ts = 10^15)")
    bqs = build_bqs_cluster(f=1, seed=3)
    attack = bqs.add_adversary(BqsTimestampExhaustionAttack("client:evil", bqs.config))
    bqs.run(max_time=30)
    print(f"BQS   : attack acknowledged by {len(attack.acks)} replicas — "
          f"max stored ts is now {max(r.ts.val for r in bqs.replicas.values()):,}")

    bft = build_cluster(f=1, seed=3)
    attack2 = bft.add_adversary(TimestampExhaustionAttack("client:evil", bft.config))
    bft.run(max_time=30)
    print(f"BFT-BC: prepare replies for the huge timestamp: {attack2.replies} "
          "(the request is not the successor of any certificate => "
          "silently discarded)")


def demo_lurking_writes() -> None:
    banner("Attack 4: lurking writes via a colluder")
    bft = build_cluster(f=1, seed=4)
    attack = bft.add_adversary(
        LurkingWriteAttack("client:evil", bft.config, warmup=1, extra_attempts=3)
    )
    bft.run(max_time=60)
    print(f"BFT-BC: attacker hoarded {len(attack.hoard)} prepared write(s); "
          f"{attack.failed_attempts} further hoarding attempts were refused "
          "(one outstanding prepare per client)")

    # The administrator revokes the key: the §4.1.1 stop event.
    bft.stop_client(attack.node_id)
    print("BFT-BC: attacker's key revoked (stop event recorded)")

    colluder = bft.add_adversary(Colluder("client:colluder", bft.config, attack.hoard))
    reader = bft.add_client("reader")
    reader.run_script(read_script(2), start_delay=0.5, think_time=0.1)
    bft.run(max_time=60)

    lurking = count_lurking_writes(bft.history, "client:evil")
    result = check_bft_linearizable(bft.history, max_b=1,
                                    bad_clients={"client:evil"})
    print(f"BFT-BC: lurking writes seen after the stop: {lurking} "
          "(Theorem 1 bound: 1)")
    print(f"BFT-BC: history BFT-linearizable with max-b=1? {result.ok}")


def main() -> None:
    demo_equivocation()
    demo_partial_write()
    demo_timestamp_exhaustion()
    demo_lurking_writes()
    print("\nAll four attacks behave exactly as §3.2/§5 predict.")


if __name__ == "__main__":
    main()
