"""End-to-end integration tests: full clusters, all variants, hostile
networks, fault schedules, and atomicity checking on every run."""

from __future__ import annotations

import pytest

from repro import LinkProfile, build_cluster
from repro.sim import FaultSchedule, make_scripts, read_script, write_script
from repro.spec import check_register_linearizable

VARIANTS = ["base", "optimized", "strong", "fastpath"]


@pytest.mark.parametrize("variant", VARIANTS)
class TestVariantsEndToEnd:
    def test_single_client_all_ops(self, variant):
        cluster = build_cluster(f=1, variant=variant, seed=50)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 5) + read_script(3))
        cluster.run(max_time=120)
        assert node.client.last_result == ("client:w", 4, None)
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation

    def test_three_concurrent_clients(self, variant):
        cluster = build_cluster(f=1, variant=variant, seed=51)
        scripts = make_scripts(
            ["client:a", "client:b", "client:c"], 6, write_fraction=0.5, seed=3
        )
        cluster.run_scripts(
            {name.split(":")[1]: s for name, s in scripts.items()}, max_time=120
        )
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation

    def test_lossy_network(self, variant):
        cluster = build_cluster(
            f=1, variant=variant, seed=52, profile=LinkProfile.lossy(0.15)
        )
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 4) + read_script(2))
        cluster.run(max_time=300)
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation

    def test_harsh_network(self, variant):
        cluster = build_cluster(
            f=1, variant=variant, seed=53, profile=LinkProfile.harsh()
        )
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 3) + read_script(1))
        cluster.run(max_time=300)
        assert cluster.metrics.operations == 4

    def test_f2_cluster(self, variant):
        cluster = build_cluster(f=2, variant=variant, seed=54)
        cluster.run_scripts(
            {
                "a": write_script("client:a", 3) + read_script(1),
                "b": write_script("client:b", 3) + read_script(1),
            },
            max_time=120,
        )
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation


class TestFaultScheduleIntegration:
    def test_rolling_crashes_within_f(self):
        """Replicas crash and recover one at a time; ops keep completing."""
        cluster = build_cluster(f=1, seed=55)
        schedule = (
            FaultSchedule()
            .crash(0.02, "replica:0")
            .recover(0.30, "replica:0")
            .crash(0.35, "replica:1")
            .recover(0.60, "replica:1")
        )
        cluster.install_faults(schedule)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 10), think_time=0.05)
        cluster.run(max_time=300)
        assert cluster.metrics.operations == 10
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation

    def test_partition_blocks_then_heals(self):
        cluster = build_cluster(f=1, seed=56)
        # Cut the client off from 2 replicas: no quorum, the op stalls;
        # after healing it completes.
        schedule = (
            FaultSchedule()
            .partition(0.0, "client:w", "replica:0")
            .partition(0.0, "client:w", "replica:1")
            .heal(0.5, "client:w", "replica:0")
        )
        cluster.install_faults(schedule)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 1))
        cluster.run(max_time=300)
        ops = cluster.history.operations()
        assert ops[0].responded_at is not None
        assert ops[0].responded_at >= 0.5  # couldn't finish before healing

    def test_degraded_links_slow_but_do_not_block(self):
        cluster = build_cluster(f=1, seed=57)
        schedule = FaultSchedule()
        for rid in cluster.config.quorums.replica_ids[:2]:
            schedule.degrade(
                0.0, "client:w", rid, LinkProfile(drop_rate=0.6, max_delay=0.03)
            )
        cluster.install_faults(schedule)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 5))
        cluster.run(max_time=300)
        assert cluster.metrics.operations == 5


class TestReadWriteBackChaining:
    def test_reader_repairs_enable_future_readers(self):
        """After a reader writes back, later readers need only one phase."""
        cluster = build_cluster(f=1, seed=58)
        cluster.network.crash("replica:3")
        w = cluster.add_client("w")
        w.run_script(write_script("client:w", 1))
        cluster.run(max_time=60)
        cluster.network.recover("replica:3")
        cluster.network.crash("replica:0")  # force laggard into quorums
        r1 = cluster.add_client("r1")
        r1.run_script(read_script(1))
        cluster.run(max_time=60)
        first_read = cluster.metrics.by_kind("read")[-1]
        assert first_read.phases == 2
        r2 = cluster.add_client("r2")
        r2.run_script(read_script(1))
        cluster.run(max_time=60)
        second_read = cluster.metrics.by_kind("read")[-1]
        assert second_read.phases == 1


class TestMixedVariantProperties:
    def test_metrics_match_paper_phase_claims(self):
        """E1 in miniature: base 3 / optimized 2 / read 1."""
        for variant, expected in (("base", 3), ("optimized", 2), ("strong", 3)):
            cluster = build_cluster(f=1, variant=variant, seed=59)
            node = cluster.add_client("w")
            node.run_script(write_script("client:w", 3) + read_script(2))
            cluster.run(max_time=120)
            write_phases = cluster.metrics.phases_summary("write")
            read_phases = cluster.metrics.phases_summary("read")
            assert write_phases.p50 == expected, variant
            assert read_phases.p50 == 1.0, variant

    def test_write_certificates_chain_across_sessions(self):
        """A client's write certificate from one run of ops keeps working
        for subsequent prepares (no reset between operations)."""
        cluster = build_cluster(f=1, seed=60)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 2))
        cluster.run(max_time=60)
        cert = node.client.write_cert
        assert cert is not None and cert.ts.val == 2
        node.run_script([("write", ("client:w", 99, None))])
        cluster.run(max_time=60)
        assert node.client.write_cert.ts.val == 3
