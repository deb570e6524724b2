"""E7 — Atomicity for good clients despite Byzantine clients (§1, §3.2, §8).

Paper claims: BFT-BC gives atomic (linearizable) semantics to good clients
no matter what Byzantine clients do.  The BQS baseline does not: the same
equivocation attack that BFT-BC provably neutralises (Lemma 1(3)) splits a
BQS register and produces non-linearizable histories.

We run randomized good-client workloads concurrently with the equivocation
attack on both systems, many seeds, and count atomicity violations.
"""

from __future__ import annotations

from repro import build_cluster
from repro.analysis import format_table
from repro.baselines.runner import build_bqs_cluster
from repro.byzantine import BqsEquivocationAttack, EquivocationAttack
from repro.sim import read_script, write_script
from repro.spec import check_bft_linearizable, check_register_linearizable

from benchmarks.conftest import run_once

SEEDS = range(700, 708)


def _bftbc_trial(seed: int) -> bool:
    cluster = build_cluster(f=1, seed=seed)
    attack = cluster.add_adversary(EquivocationAttack("client:evil", cluster.config))
    r1 = cluster.add_client("r1")
    r2 = cluster.add_client("r2")
    w = cluster.add_client("w")
    w.run_script(write_script("client:w", 2), start_delay=0.3)
    r1.run_script(read_script(3), think_time=0.2)
    r2.run_script(read_script(3), start_delay=0.1, think_time=0.2)
    cluster.run(max_time=120)
    return check_bft_linearizable(
        cluster.history, max_b=1, bad_clients={"client:evil"}
    ).ok


def _bqs_trial(seed: int) -> bool:
    cluster = build_bqs_cluster(f=1, seed=seed)
    attack = cluster.add_adversary(BqsEquivocationAttack("client:evil", cluster.config))
    r1 = cluster.add_client("r1")
    r2 = cluster.add_client("r2")
    r1.run_script(read_script(3), start_delay=0.1, think_time=0.2)
    r2.run_script(read_script(3), start_delay=0.2, think_time=0.2)
    cluster.run(max_time=120)
    return check_register_linearizable(cluster.history).ok


def test_e7_atomicity_under_equivocation(benchmark):
    def experiment():
        bftbc_ok = sum(_bftbc_trial(seed) for seed in SEEDS)
        bqs_ok = sum(_bqs_trial(seed) for seed in SEEDS)
        trials = len(list(SEEDS))
        print()
        print(
            format_table(
                ["system", "trials", "atomic histories", "violations"],
                [
                    ["BFT-BC", trials, bftbc_ok, trials - bftbc_ok],
                    ["BQS (no Byz-client handling)", trials, bqs_ok, trials - bqs_ok],
                ],
                title="E7: equivocation attack vs atomicity "
                "(paper: BFT-BC always atomic; BQS breaks)",
            )
        )
        return bftbc_ok, bqs_ok, trials

    bftbc_ok, bqs_ok, trials = run_once(benchmark, experiment)
    assert bftbc_ok == trials  # BFT-BC: never a violation
    assert bqs_ok < trials  # BQS: the attack succeeds at least sometimes
