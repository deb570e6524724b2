#!/usr/bin/env python3
"""Tour of the verification tooling: traces, checkers, and executable proofs.

Runs a lurking-write attack while three verification instruments watch:

1. :class:`~repro.sim.MessageTrace` — every message on the wire, timestamped;
2. :func:`~repro.spec.check_lemma1` — §5's Lemma 1 as an executable
   invariant over the replicas' signing logs;
3. :func:`~repro.spec.check_bft_linearizable` — Definition 1 against the
   recorded client history, lurking-write bound included.

Run:  python examples/verification_tools.py
"""

from repro import (
    Colluder,
    LurkingWriteAttack,
    MessageTrace,
    build_cluster,
    check_bft_linearizable,
    check_lemma1,
    count_lurking_writes,
    read_script,
    write_script,
)


def main() -> None:
    cluster = build_cluster(f=1, seed=99)
    trace = MessageTrace.attach(cluster)

    # A good client works first; the Byzantine client then hoards a
    # prepared write *on top of* the good client's state, so the hoarded
    # timestamp stays the freshest in the system.
    good = cluster.add_client("good")
    good.run_script(write_script("client:good", 2))
    cluster.run(max_time=60)
    attack = cluster.add_adversary(
        LurkingWriteAttack("client:evil", cluster.config, warmup=1, extra_attempts=2)
    )
    cluster.run(max_time=60)

    print("=== 1. the wire, as it happened (first 12 events) " + "=" * 14)
    print(trace.render(limit=12))
    print()
    print(trace.summary())

    print("\n=== 2. Lemma 1, checked against replica signing logs " + "=" * 10)
    report = check_lemma1(
        cluster.replicas.values(), f=1, suspects=["client:evil"]
    )
    print(f"tsmax (f+1-st highest stored timestamp): {report.tsmax}")
    print(f"certifiable prepares above tsmax: "
          f"{ {c: list(map(str, t)) for c, t in report.certifiable_prepares.items()} }")
    print(f"Lemma 1 holds: {report.ok}"
          + (f" — violations: {report.violations}" if not report.ok else ""))
    print(f"(the attacker's {attack.failed_attempts} extra hoarding attempts "
          "were refused: at most one certifiable prepare above tsmax)")

    print("\n=== 3. Definition 1, checked against the client history " + "=" * 7)
    cluster.stop_client(attack.node_id)
    cluster.add_adversary(Colluder("client:colluder", cluster.config, attack.hoard))
    reader = cluster.add_client("reader")
    reader.run_script(read_script(2), start_delay=0.4, think_time=0.1)
    cluster.run(max_time=60)

    lurking = count_lurking_writes(cluster.history, "client:evil")
    result = check_bft_linearizable(
        cluster.history, max_b=1, bad_clients={"client:evil"}
    )
    print(f"lurking writes first seen after the stop event: {lurking}")
    print(f"BFT-linearizable with max-b = 1: {result.ok}")
    assert result.ok and report.ok


if __name__ == "__main__":
    main()
