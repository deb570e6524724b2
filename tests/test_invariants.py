"""Tests for the executable Lemma 1 invariants (§5 as code)."""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.byzantine import (
    Colluder,
    CollusionChainAttack,
    EquivocationAttack,
    LurkingWriteAttack,
    PromiscuousReplica,
)
from repro.sim import make_scripts, read_script, write_script
from repro.spec import check_lemma1


def lemma1(cluster, **kwargs):
    return check_lemma1(
        cluster.replicas.values(), f=cluster.config.f, **kwargs
    )


class TestHonestExecutions:
    def test_fresh_cluster(self):
        cluster = build_cluster(f=1, seed=300)
        report = lemma1(cluster)
        assert report.ok
        assert report.tsmax.val == 0

    def test_single_writer(self):
        cluster = build_cluster(f=1, seed=301)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 5))
        cluster.run(max_time=60)
        cluster.settle()
        report = lemma1(cluster)
        assert report.ok, report.violations
        assert report.tsmax.val == 5

    @pytest.mark.parametrize("variant,bound", [("base", 1), ("optimized", 2)])
    def test_concurrent_writers(self, variant, bound):
        cluster = build_cluster(f=1, variant=variant, seed=302)
        scripts = make_scripts(
            ["client:a", "client:b", "client:c"], 6, write_fraction=0.7, seed=1
        )
        cluster.run_scripts(
            {n.split(":")[1]: s for n, s in scripts.items()}, max_time=300
        )
        cluster.settle()
        report = lemma1(cluster, max_prepared_per_client=bound)
        assert report.ok, report.violations

    def test_f2(self):
        cluster = build_cluster(f=2, seed=303)
        cluster.run_scripts(
            {"a": write_script("client:a", 4), "b": write_script("client:b", 4)},
            max_time=300,
        )
        cluster.settle()
        report = lemma1(cluster)
        assert report.ok, report.violations


class TestUnderAttack:
    def test_lurking_write_attack_stays_within_lemma(self):
        cluster = build_cluster(f=1, seed=304)
        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, warmup=2, extra_attempts=3
            )
        )
        cluster.run(max_time=120)
        report = lemma1(cluster, suspects=["client:evil"])
        assert report.ok, report.violations
        # The hoarded timestamp is certifiable — exactly one, per the lemma.
        assert report.certifiable_prepares.get("client:evil", []) != []

    def test_equivocation_attack_stays_within_lemma(self):
        cluster = build_cluster(f=1, seed=305)
        attack = cluster.add_adversary(
            EquivocationAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=120)
        report = lemma1(cluster, suspects=["client:evil"])
        assert report.ok, report.violations

    def test_optimized_double_hoard_needs_relaxed_bound(self):
        """The §6.3 exploit is visible to the invariant checker: the client
        holds TWO certifiable prepares — within Lemma 1'(2)'s bound of two,
        violating the base lemma's bound of one."""
        cluster = build_cluster(f=1, variant="optimized", seed=306)
        attack = cluster.add_adversary(
            LurkingWriteAttack("client:evil", cluster.config, "optimized")
        )
        cluster.run(max_time=120)
        assert len(attack.hoard) == 2
        base_bound = lemma1(cluster, max_prepared_per_client=1)
        optimized_bound = lemma1(cluster, max_prepared_per_client=2)
        # Both hoarded certs share one timestamp (two values), so part 2
        # holds even at bound 1 — but part 3's one-value-per-timestamp is
        # exactly what the optimized protocol weakens:
        assert not base_bound.ok or len(
            {c.ts for c in attack.hoard}
        ) == 1
        assert optimized_bound.violations == [
            v for v in optimized_bound.violations if "1(3)" in v
        ]

    def test_collusion_chain_certifiable_per_member(self):
        cluster = build_cluster(f=1, seed=307)
        members = ["m1", "m2", "m3"]
        attack = cluster.add_adversary(
            CollusionChainAttack(
                "client:leader",
                cluster.config,
                members=[f"client:{m}" for m in members],
            )
        )
        cluster.run(max_time=120)
        report = lemma1(cluster, suspects=[f"client:{m}" for m in members])
        # Each member individually satisfies Lemma 1(2) ...
        assert report.ok, report.violations
        # ... and the chain is visible: every member has one certifiable ts.
        for member in members:
            assert len(report.certifiable_prepares[f"client:{member}"]) == 1

    def test_promiscuous_replica_must_be_excluded(self):
        """Sanity on the checker itself: a Byzantine replica's log is
        unconstrained, so counting it can produce false alarms; excluding
        it (as the lemma's statement does) restores the invariant."""
        cluster = build_cluster(
            f=1, seed=308, replica_overrides={0: PromiscuousReplica}
        )
        attack = cluster.add_adversary(
            EquivocationAttack("client:evil", cluster.config)
        )
        node = cluster.add_client("good")
        node.run_script(write_script("client:good", 2))
        cluster.run(max_time=120)
        report = lemma1(cluster, byzantine_replicas={"replica:0"})
        assert report.ok, report.violations


class TestCheckerEdgeCases:
    def test_no_correct_replicas_rejected(self):
        cluster = build_cluster(f=1, seed=309)
        with pytest.raises(ValueError):
            check_lemma1(
                cluster.replicas.values(),
                f=1,
                byzantine_replicas=set(cluster.replicas),
            )

    def test_report_is_falsy_on_violation(self):
        from repro.spec import Lemma1Report
        from repro.core import ZERO_TS

        report = Lemma1Report(ok=False, tsmax=ZERO_TS, violations=["x"])
        assert not report
