"""E9 — Timestamp-space exhaustion (§3.2 issue 3).

Paper claims: BFT-BC prevents bad clients from exhausting the timestamp
space — a proposed timestamp must be the successor of a valid prepare
certificate's, so timestamps grow by exactly one per admitted write.
Against BQS the same attack succeeds on the first try.
"""

from __future__ import annotations

from repro import build_cluster
from repro.analysis import format_table
from repro.baselines.runner import build_bqs_cluster, build_phalanx_cluster
from repro.byzantine import (
    BqsTimestampExhaustionAttack,
    PhalanxTimestampExhaustionAttack,
    TimestampExhaustionAttack,
)
from repro.sim import write_script

from benchmarks.conftest import run_once

GOOD_WRITES = 6


def test_e9_timestamp_growth(benchmark):
    def experiment():
        # BFT-BC under attack.
        bft = build_cluster(f=1, seed=900)
        attack = bft.add_adversary(TimestampExhaustionAttack("client:evil", bft.config))
        good = bft.add_client("good")
        good.run_script(write_script("client:good", GOOD_WRITES))
        bft.run(max_time=120)
        bft.settle()
        bft_max = max(r.pcert.ts.val for r in bft.replicas.values())

        # BQS under the same attack.
        bqs = build_bqs_cluster(f=1, seed=900)
        bqs_attack = bqs.add_adversary(
            BqsTimestampExhaustionAttack("client:evil", bqs.config)
        )
        bqs_good = bqs.add_client("good")
        bqs_good.run_script(write_script("client:good", GOOD_WRITES))
        bqs.run(max_time=120)
        bqs.settle()
        bqs_max = max(r.ts.val for r in bqs.replicas.values())

        # Phalanx: echo certificates stop equivocation but not skipping —
        # the "non-skipping timestamps" gap (§8, refs [2] and [3]).
        phx = build_phalanx_cluster(f=1, seed=900)
        phx_attack = phx.add_adversary(
            PhalanxTimestampExhaustionAttack("client:evil", phx.config)
        )
        phx.run(max_time=120)
        phx.settle()
        phx_max = max(r.ts.val for r in phx.replicas.values())

        print()
        print(
            format_table(
                ["system", "good writes", "attack succeeded",
                 "max timestamp value"],
                [
                    ["BFT-BC", GOOD_WRITES, "no", bft_max],
                    ["BQS", GOOD_WRITES, "yes" if bqs_attack.succeeded else "no", bqs_max],
                    ["Phalanx", 0, "yes" if phx_attack.succeeded else "no", phx_max],
                ],
                title="E9: timestamp growth under an exhaustion attack "
                f"(attack proposes ts = 10^15; paper: BFT-BC stays at "
                f"#writes = {GOOD_WRITES})",
            )
        )
        return bft_max, bqs_max, phx_max, attack.replies, bqs_attack.succeeded, phx_attack.succeeded

    (bft_max, bqs_max, phx_max, bft_replies,
     bqs_succeeded, phx_succeeded) = run_once(benchmark, experiment)
    # BFT-BC: the huge prepare is silently discarded everywhere, and the
    # committed timestamp equals exactly the number of completed writes.
    assert bft_replies == 0
    assert bft_max == GOOD_WRITES
    # BQS and Phalanx: one shot and the space is burned.
    assert bqs_succeeded and bqs_max >= 10**15
    assert phx_succeeded and phx_max >= 10**15
