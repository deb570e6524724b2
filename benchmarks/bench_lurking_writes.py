"""E5 — Lurking-write bounds (§5 Theorem 1, §6.3, §7).

Paper claims:
* base protocol: a stopped Byzantine client leaves at most **1** lurking
  write, even with maximal hoarding attempts;
* optimized protocol: at most **2** (one per prepare list);
* strong (§7) protocol: lurking writes are *masked* after 2 consecutive
  good-client overwrites (BFT-linearizable+ with k = 2).
"""

from __future__ import annotations

from repro import build_cluster, count_lurking_writes
from repro.analysis import format_table
from repro.byzantine import (
    Colluder,
    LurkingWriteAttack,
)
from repro.sim import read_script, write_script
from repro.spec import check_bft_linearizable, check_bft_linearizable_plus

from benchmarks.conftest import run_once


def _base_attack(seed: int):
    cluster = build_cluster(f=1, seed=seed)
    attack = cluster.add_adversary(
        LurkingWriteAttack("client:evil", cluster.config, warmup=1, extra_attempts=3)
    )
    cluster.run(max_time=120)
    cluster.stop_client(attack.node_id)
    cluster.add_adversary(
        Colluder("client:colluder", cluster.config, attack.hoard)
    )
    reader = cluster.add_client("reader")
    reader.run_script(read_script(3), start_delay=0.5, think_time=0.1)
    cluster.run(max_time=120)
    lurking = count_lurking_writes(cluster.history, "client:evil")
    ok = check_bft_linearizable(
        cluster.history, max_b=1, bad_clients={"client:evil"}
    ).ok
    return len(attack.hoard), attack.failed_attempts, lurking, ok


def _optimized_attack(seed: int):
    cluster = build_cluster(f=1, variant="optimized", seed=seed)
    attack = cluster.add_adversary(
        LurkingWriteAttack("client:evil", cluster.config, "optimized")
    )
    cluster.run(max_time=120)
    cluster.stop_client(attack.node_id)
    cluster.add_adversary(
        Colluder("client:colluder", cluster.config, attack.hoard)
    )
    reader = cluster.add_client("reader")
    reader.run_script(read_script(3), start_delay=0.6, think_time=0.1)
    cluster.run(max_time=120)
    lurking = count_lurking_writes(cluster.history, "client:evil")
    ok = check_bft_linearizable(
        cluster.history, max_b=2, bad_clients={"client:evil"}
    ).ok
    return len(attack.hoard), 0, lurking, ok


def test_e5_lurking_write_bounds(benchmark):
    def experiment():
        rows = []
        results = {}
        for name, runner, bound in (
            ("base", _base_attack, 1),
            ("optimized", _optimized_attack, 2),
        ):
            hoard, failed, lurking, ok = runner(seed=500)
            results[name] = (hoard, lurking, ok)
            rows.append([name, bound, hoard, lurking, "yes" if ok else "NO"])
        print()
        print(
            format_table(
                ["protocol", "paper bound", "hoard achieved",
                 "lurking writes seen", "BFT-linearizable"],
                rows,
                title="E5: lurking writes after the Byzantine client stops",
            )
        )
        return results

    results = run_once(benchmark, experiment)
    base_hoard, base_lurking, base_ok = results["base"]
    assert base_hoard == 1  # Lemma 1(2): hoarding a second prepare fails
    assert base_lurking <= 1  # Theorem 1
    assert base_ok
    opt_hoard, opt_lurking, opt_ok = results["optimized"]
    assert opt_hoard == 2  # §6.3: the two-list exploit works ...
    assert opt_lurking <= 2  # ... but Theorem 2's bound holds
    assert opt_ok


def test_e5_strong_masking(benchmark):
    """§7: after two good-client overwrites, the lurking write is invisible
    forever (BFT-linearizable+ with k=2)."""

    def experiment():
        cluster = build_cluster(f=1, variant="strong", seed=501)
        # In strong mode the bad client must justify its prepare, but it can
        # still hoard the final WRITE: the one attack, on the strong variant.
        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, "strong",
                warmup=0, extra_attempts=0,
            )
        )
        cluster.run(max_time=120)
        assert attack.hoard
        cluster.stop_client(attack.node_id)

        # Good client overwrites twice BEFORE the colluder replays.
        writer = cluster.add_client("good")
        writer.run_script(write_script("client:good", 2))
        cluster.run(max_time=120)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("reader")
        reader.run_script(read_script(3), start_delay=0.5, think_time=0.1)
        cluster.run(max_time=120)

        plus = check_bft_linearizable_plus(
            cluster.history, k=2, bad_clients={"client:evil"}
        )
        reads = [
            r.result
            for r in cluster.history.operations()
            if r.op == "read" and r.complete
        ]
        print()
        print(
            format_table(
                ["check", "result"],
                [
                    ["hoard size", len(attack.hoard)],
                    ["reads after 2 overwrites", repr(sorted(set(map(repr, reads))))],
                    ["BFT-linearizable+ (k=2)", "yes" if plus.ok else "NO"],
                ],
                title="E5b: §7 strong protocol masks lurking writes after k=2 overwrites",
            )
        )
        return plus.ok, reads

    ok, reads = run_once(benchmark, experiment)
    assert ok
    # The lurking write's timestamp succeeds a pre-stop completed write, so
    # two fresh good writes dominate it: readers only see the good value.
    assert all(r == ("client:good", 1, None) for r in reads)


def test_e5c_collusion_chain_masking_depth(benchmark):
    """§7.2's motivation, measured: a colluding group of |C| clients chains
    |C| lurking writes with successive timestamps against the base protocol,
    and an adaptive colluder can keep trumping good writes ~|C|/2 times.
    The strong protocol caps the chain at one link, masked within two good
    writes (BFT-linearizable+ with k = 2)."""

    from repro.byzantine import CollusionChainAttack

    GROUP = ["m1", "m2", "m3", "m4", "m5", "m6"]

    def masking_depth(variant: str) -> tuple[int, int]:
        cluster = build_cluster(f=1, variant=variant, seed=502)
        attack = cluster.add_adversary(
            CollusionChainAttack(
                "client:leader",
                cluster.config,
                members=[f"client:{m}" for m in GROUP],
            )
        )
        cluster.run(max_time=120)
        for member in attack.members:
            cluster.stop_client(member)
        hoard = sorted(attack.hoard, key=lambda c: c.ts)
        good = cluster.add_client("good")
        reader = cluster.add_client("reader")
        rounds_visible = 0
        seq = 0
        for _ in range(len(GROUP) + 3):
            # One good overwrite ...
            seq += 1
            good.run_script([("write", ("client:good", seq, None))])
            cluster.run(max_time=60)
            # ... then the adaptive colluder releases the smallest hoarded
            # write that still trumps the register (unreleased links keep
            # their higher timestamps fresh for later rounds).
            current = max(r.pcert.ts for r in cluster.replicas.values())
            release = next((c for c in hoard if c.ts > current), None)
            if release is not None:
                cluster.add_adversary(
                    Colluder(f"client:colluder-{seq}", cluster.config, [release])
                )
                hoard.remove(release)
                cluster.run(max_time=60)
            reader.run_script([("read", None)])
            cluster.run(max_time=60)
            value = reader.client.last_result
            writer = value[0] if isinstance(value, tuple) else None
            if writer != "client:good":
                rounds_visible += 1
            elif not hoard:
                break
        return len(attack.hoard), rounds_visible

    def experiment():
        base_hoard, base_depth = masking_depth("base")
        strong_hoard, strong_depth = masking_depth("strong")
        print()
        print(
            format_table(
                ["protocol", "colluding clients", "chained lurking writes",
                 "good writes trumped"],
                [
                    ["base", len(GROUP), base_hoard, base_depth],
                    ["strong (§7)", len(GROUP), strong_hoard, strong_depth],
                ],
                title="E5c: collusion chain — why §7 exists "
                "(base: masking depth grows with |C|; strong: <= 2)",
            )
        )
        return base_hoard, base_depth, strong_hoard, strong_depth

    base_hoard, base_depth, strong_hoard, strong_depth = run_once(
        benchmark, experiment
    )
    assert base_hoard == len(GROUP)   # the chain fully succeeds on base
    assert strong_hoard == 1          # and dies at one link on strong
    assert base_depth >= 2            # adaptive releases trump repeatedly
    assert strong_depth <= 2          # §7's k=2 masking bound
    assert base_depth > strong_depth
