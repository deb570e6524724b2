"""Soak tests: larger, longer, nastier mixed scenarios.

These combine everything at once — many clients, harsh network, Byzantine
replicas, Byzantine clients, faults mid-run — and check full correctness at
the end.  They are the closest thing to the paper's deployment story.
"""

from __future__ import annotations

import pytest

from repro import LinkProfile, build_cluster, count_lurking_writes
from repro.byzantine import (
    Colluder,
    CrashedReplica,
    EquivocationAttack,
    LurkingWriteAttack,
    PromiscuousReplica,
)
from repro.sim import FaultSchedule, make_scripts, read_script, write_script
from repro.spec import check_bft_linearizable, check_register_linearizable


class TestBigHonestWorkloads:
    def test_five_clients_harsh_network(self):
        cluster = build_cluster(
            f=1,
            seed=200,
            profile=LinkProfile(
                drop_rate=0.12,
                duplicate_rate=0.05,
                corrupt_rate=0.01,
                max_delay=0.03,
            ),
        )
        names = [f"client:w{i}" for i in range(5)]
        scripts = make_scripts(names, 10, write_fraction=0.5, seed=9)
        cluster.run_scripts(
            {n.split(":")[1]: s for n, s in scripts.items()}, max_time=600
        )
        assert cluster.metrics.operations == 50
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation

    def test_f2_optimized_with_rolling_faults(self):
        cluster = build_cluster(f=2, variant="optimized", seed=201)
        schedule = FaultSchedule()
        for index, rid in enumerate(cluster.config.quorums.replica_ids[:2]):
            schedule.crash(0.1 + 0.3 * index, rid)
            schedule.recover(0.25 + 0.3 * index, rid)
        cluster.install_faults(schedule)
        names = [f"client:w{i}" for i in range(4)]
        scripts = make_scripts(names, 8, write_fraction=0.6, seed=3)
        cluster.run_scripts(
            {n.split(":")[1]: s for n, s in scripts.items()},
            think_time=0.02,
            max_time=600,
        )
        assert cluster.metrics.operations == 32
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation


class TestKitchenSink:
    def test_everything_at_once(self):
        """f=2 cluster with one crashed + one promiscuous replica, an
        equivocating client, a lurking-write client with colluder, loss and
        duplication, plus four honest clients — and the history still
        satisfies Definition 1."""
        cluster = build_cluster(
            f=2,
            seed=202,
            profile=LinkProfile(drop_rate=0.05, duplicate_rate=0.03, max_delay=0.02),
            replica_overrides={0: CrashedReplica, 6: PromiscuousReplica},
        )
        equivocator = cluster.add_adversary(
            EquivocationAttack("client:eq-evil", cluster.config)
        )
        lurker = cluster.add_adversary(
            LurkingWriteAttack(
                "client:lw-evil", cluster.config, warmup=1, extra_attempts=1
            )
        )

        names = [f"client:g{i}" for i in range(4)]
        scripts = make_scripts(names, 6, write_fraction=0.5, seed=5)
        cluster.run_scripts(
            {n.split(":")[1]: s for n, s in scripts.items()},
            think_time=0.05,
            max_time=900,
        )

        # The lurker leaves; its colluder replays; readers keep reading.
        cluster.stop_client(lurker.node_id)
        if lurker.hoard:
            cluster.add_adversary(
                Colluder("client:colluder", cluster.config, lurker.hoard)
            )
        reader = cluster.add_client("late-reader")
        reader.run_script(read_script(3), start_delay=0.3, think_time=0.1)
        cluster.run(max_time=900)

        assert cluster.metrics.operations == 4 * 6 + 3
        # Lemma 1(3) is scoped to timestamps ABOVE the completed state
        # (t > tsmax): once honest writes supersede the attacker's
        # timestamp, replicas may sign a second value for it (phase-2
        # step 5 replies even when the entry is stale) — harmlessly, since
        # every read quorum contains a correct replica with newer state.
        if equivocator.quorums_reached > 1:
            completed = max(r.write_ts for r in cluster.replicas.values())
            for cert in equivocator.certificates.values():
                assert cert.ts <= completed
        # Likewise Lemma 1(2): with honest writes racing past the attacker,
        # it may hoard several certificates, but at most ONE sits above the
        # completed state — the rest can never win a read again.
        completed = max(r.write_ts for r in cluster.replicas.values())
        fresh_hoard = [c for c in lurker.hoard if c.ts > completed]
        assert len(fresh_hoard) <= 1
        assert count_lurking_writes(cluster.history, "client:lw-evil") <= 1
        result = check_bft_linearizable(
            cluster.history,
            max_b=1,
            bad_clients={"client:lw-evil", "client:eq-evil"},
        )
        assert result.ok, result.violation

    def test_long_alternating_session_strong_variant(self):
        from repro.sim import alternating_script

        cluster = build_cluster(f=1, variant="strong", seed=203)
        cluster.run_scripts(
            {
                "a": alternating_script("client:a", 10),
                "b": alternating_script("client:b", 10),
            },
            max_time=600,
        )
        assert cluster.metrics.operations == 40
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation
        # Reads stayed within the paper's two-phase bound throughout.
        assert max(s.phases for s in cluster.metrics.by_kind("read")) <= 2
