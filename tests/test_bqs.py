"""Tests for the BQS baseline: functional correctness for honest clients and
the known vulnerabilities to Byzantine ones."""

from __future__ import annotations

import pytest

from repro.baselines.runner import build_bqs_cluster
from repro.core.timestamp import Timestamp, ZERO_TS
from repro.sim import read_script, write_script
from repro.spec import check_register_linearizable


class TestHonestOperation:
    def test_write_then_read(self):
        cluster = build_bqs_cluster(f=1, seed=1)
        node = cluster.add_client("a")
        node.run_script(write_script("client:a", 1) + read_script(1))
        cluster.run()
        assert node.client.last_result == ("client:a", 0, None)

    def test_writes_take_two_phases(self):
        cluster = build_bqs_cluster(f=1, seed=2)
        node = cluster.add_client("a")
        node.run_script(write_script("client:a", 3))
        cluster.run()
        assert cluster.metrics.phase_histogram("write") == {2: 3}

    def test_reads_take_one_phase_when_stable(self):
        cluster = build_bqs_cluster(f=1, seed=3)
        node = cluster.add_client("a")
        node.run_script(write_script("client:a", 1) + read_script(2))
        cluster.run()
        assert cluster.metrics.phase_histogram("read") == {1: 2}

    def test_concurrent_honest_clients_linearizable(self):
        cluster = build_bqs_cluster(f=1, seed=4)
        cluster.run_scripts(
            {
                "a": write_script("client:a", 3) + read_script(2),
                "b": write_script("client:b", 3) + read_script(2),
            }
        )
        assert check_register_linearizable(cluster.history).ok

    def test_replica_state_after_write(self):
        cluster = build_bqs_cluster(f=1, seed=5)
        node = cluster.add_client("a")
        node.run_script(write_script("client:a", 1))
        cluster.run()
        cluster.settle()
        fresh = [
            r
            for r in cluster.replicas.values()
            if r.ts == Timestamp(1, "client:a")
        ]
        assert len(fresh) >= cluster.config.quorum_size

    def test_genesis_read(self):
        cluster = build_bqs_cluster(f=1, seed=6)
        node = cluster.add_client("a")
        node.run_script(read_script(1))
        cluster.run()
        assert node.client.last_result is None


class TestReplicaValidation:
    def test_forged_writer_signature_rejected(self):
        from repro.baselines.bqs import BqsReplica
        from repro.baselines.messages import BqsWriteRequest
        from repro.core import make_system
        from repro.crypto.signatures import Signature

        config = make_system(f=1, seed=b"bqs-unit")
        config.registry.register("client:a")
        replica = BqsReplica("replica:0", config)
        request = BqsWriteRequest(
            value=("v", 1),
            ts=Timestamp(1, "client:a"),
            writer_sig=Signature(signer="client:a", value=b"\x00" * 32),
        )
        assert replica.handle("client:a", request) is None
        assert replica.stats.discards["bad-signature"] == 1

    def test_unauthorized_writer_rejected(self):
        from repro.baselines.bqs import BqsReplica
        from repro.baselines.messages import BqsWriteRequest
        from repro.baselines.statements import bqs_write_statement
        from repro.core import make_system
        from repro.core.config import NamespaceWriters
        from repro.crypto.hashing import hash_value

        config = make_system(f=1, seed=b"bqs-unit2")
        config.registry.register("client:a")
        config.authorized_writers = NamespaceWriters()  # nobody may write
        replica = BqsReplica("replica:0", config)
        ts = Timestamp(1, "client:a")
        sig = config.scheme.sign(
            "client:a", bqs_write_statement(ts, hash_value(("v", 1)))
        )
        request = BqsWriteRequest(value=("v", 1), ts=ts, writer_sig=sig)
        assert replica.handle("client:a", request) is None

    def test_stale_timestamp_not_installed(self):
        from repro.baselines.bqs import BqsReplica
        from repro.baselines.messages import BqsWriteRequest
        from repro.baselines.statements import bqs_write_statement
        from repro.core import make_system
        from repro.crypto.hashing import hash_value

        config = make_system(f=1, seed=b"bqs-unit3")
        config.registry.register("client:a")
        replica = BqsReplica("replica:0", config)

        def write(ts_val, value):
            ts = Timestamp(ts_val, "client:a")
            sig = config.scheme.sign(
                "client:a", bqs_write_statement(ts, hash_value(value))
            )
            return replica.handle(
                "client:a", BqsWriteRequest(value=value, ts=ts, writer_sig=sig)
            )

        write(2, ("v", 2))
        write(1, ("v", 1))  # stale: acked but not installed
        assert replica.data == ("v", 2)
        assert replica.stats.writes_installed == 1


class TestKnownVulnerabilities:
    def test_equivocation_splits_state(self):
        """The §3.2 issue-1 attack succeeds against BQS."""
        from repro.byzantine import BqsEquivocationAttack

        cluster = build_bqs_cluster(f=1, seed=8)
        attack = cluster.add_adversary(
            BqsEquivocationAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=30)
        assert len(attack.acks_a) >= 1 and len(attack.acks_b) >= 1
        values = {repr(r.data) for r in cluster.replicas.values() if r.data}
        assert len(values) == 2  # two values under one timestamp

    def test_equivocation_breaks_atomicity_for_readers(self):
        from repro.byzantine import BqsEquivocationAttack

        cluster = build_bqs_cluster(f=1, seed=8)
        attack = cluster.add_adversary(
            BqsEquivocationAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=30)
        r1 = cluster.add_client("r1")
        r2 = cluster.add_client("r2")
        r1.run_script(read_script(1))
        r2.run_script(read_script(1), start_delay=0.2)
        cluster.run(max_time=30)
        assert not check_register_linearizable(cluster.history).ok

    def test_timestamp_exhaustion_succeeds(self):
        """The §3.2 issue-3 attack succeeds against BQS."""
        from repro.byzantine import BqsTimestampExhaustionAttack

        cluster = build_bqs_cluster(f=1, seed=9)
        attack = cluster.add_adversary(
            BqsTimestampExhaustionAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=30)
        assert attack.succeeded
        assert any(
            r.ts.val >= attack.HUGE for r in cluster.replicas.values()
        )
