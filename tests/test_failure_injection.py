"""Targeted failure injection: faults landing at precise protocol moments.

These tests pin down recovery behaviour that coarse fault schedules might
miss: partitions opening mid-phase, replicas crashing between phases, and
messages lost at each individual protocol step.
"""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.core import BftBcClient, make_system
from repro.core.messages import PrepareReply, ReadTsReply, WriteReply
from repro.sim import read_script, write_script
from repro.spec import check_register_linearizable

from tests.helpers import DirectDriver, make_replicas


@pytest.fixture
def config():
    return make_system(f=1, seed=b"failure-inject")


@pytest.fixture
def replicas(config):
    return make_replicas(config)


@pytest.fixture
def driver(config, replicas):
    return DirectDriver(BftBcClient("client:alice", config), replicas)


class TestPerPhaseLoss:
    """Drop all of one phase's traffic, then recover via retransmission."""

    def test_phase1_blackout(self, driver, replicas):
        driver.drop(*[r.node_id for r in replicas])
        op = driver.run_write(("v", 1))
        assert not op.done and op.phases == 1
        driver.restore(*[r.node_id for r in replicas])
        driver.tick()
        assert op.done

    def test_phase2_blackout(self, driver, replicas, config):
        # Let phase 1 succeed, then cut everything for phase 2.
        client = driver.client
        sends = client.begin_write(("v", 1))
        # Deliver phase-1 replies manually.
        for replica in replicas:
            reply = replica.handle(client.node_id, sends[0].message)
            out = client.deliver(replica.node_id, reply)
            if out:  # phase-2 requests produced: swallow them (blackout)
                break
        op = client.op
        assert not op.done
        driver.tick()  # retransmits phase 2 to everyone
        assert op.done
        assert op.phases == 3

    def test_phase3_partial_then_recover(self, driver, replicas):
        # Phase 3 reaches only 2 replicas at first (below quorum).
        client = driver.client
        driver.drop(replicas[2].node_id, replicas[3].node_id)
        op = driver.run_write(("v", 1))
        # Phases 1-2 failed already? No: quorum needs 3; with two dropped
        # only 2 respond, so the op is stuck in phase 1.
        assert not op.done
        driver.restore(replicas[2].node_id)
        driver.tick()
        assert op.done

    def test_write_back_loss_recovered(self, driver, replicas, config):
        driver.drop(replicas[3].node_id)
        driver.run_write(("v", 1))
        driver.restore(replicas[3].node_id)
        driver.drop(replicas[0].node_id)  # force laggard into quorum
        # Now drop the laggard *during* the write-back.
        client = driver.client
        sends = client.begin_read()
        driver.pump(sends[:2])  # two fresh replies
        driver.drop(replicas[3].node_id)
        driver.pump(sends[2:])  # third reply triggers write-back, which is lost
        op = client.op
        assert not op.done
        driver.restore(replicas[3].node_id)
        driver.tick()
        assert op.done
        assert replicas[3].data == ("v", 1)


class TestMidRunPartitions:
    def test_partition_during_concurrent_writes(self):
        from repro.sim import FaultSchedule

        cluster = build_cluster(f=1, seed=80)
        schedule = (
            FaultSchedule()
            .partition(0.005, "client:a", "replica:0")
            .partition(0.005, "client:b", "replica:1")
            .heal(0.4, "client:a", "replica:0")
            .heal(0.4, "client:b", "replica:1")
        )
        cluster.install_faults(schedule)
        cluster.run_scripts(
            {
                "a": write_script("client:a", 4) + read_script(1),
                "b": write_script("client:b", 4) + read_script(1),
            },
            max_time=300,
        )
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation

    def test_replica_crash_between_client_ops(self):
        cluster = build_cluster(f=1, seed=81)
        w = cluster.add_client("w")
        w.run_script(write_script("client:w", 2))
        cluster.run(max_time=60)
        cluster.network.crash("replica:1")
        w.run_script(read_script(1) + [("write", ("client:w", 99, None))])
        cluster.run(max_time=60)
        assert cluster.metrics.operations == 4

    def test_quorum_loss_then_recovery(self):
        """Two replicas down (> f): the system stalls but does not corrupt;
        recovery restores liveness and atomicity."""
        from repro.errors import OperationFailedError
        from repro.sim import FaultSchedule

        cluster = build_cluster(f=1, seed=82)
        cluster.network.crash("replica:0")
        cluster.network.crash("replica:1")
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 1))
        with pytest.raises(OperationFailedError):
            cluster.run(max_time=0.5)
        cluster.network.recover("replica:0")
        cluster.run(max_time=60)
        assert cluster.metrics.operations == 1
        report = check_register_linearizable(cluster.history)
        assert report.ok, report.violation


class TestDuplicatedDelayedReplies:
    def test_stale_phase_replies_ignored(self, driver, replicas, config):
        """Replies from a *previous* operation (captured and replayed) must
        not satisfy the current operation's collector."""
        client = driver.client
        # Run a full write and capture its replies.
        captured = []
        sends = client.begin_write(("v", 1))
        for replica in replicas:
            reply = replica.handle(client.node_id, sends[0].message)
            captured.append((replica.node_id, reply))
            driver.pump(client.deliver(replica.node_id, reply))
        assert client.op.done
        # Start a second write; replay the first op's phase-1 replies.
        client.begin_write(("v", 2))
        for sender, reply in captured:
            client.deliver(sender, reply)
        # The nonce binds replies to operations: nothing was accepted.
        assert client.op._collector is not None
        assert len(client.op._collector.replies) == 0

    def test_duplicated_write_replies_harmless(self, driver, replicas, config):
        from repro.core.statements import write_reply_statement

        op = driver.run_write(("v", 1))
        assert op.done
        # A duplicate WRITE-REPLY arriving after completion is ignored.
        duplicate = WriteReply(
            ts=op.result,
            signature=config.scheme.sign(
                replicas[0].node_id, write_reply_statement(op.result)
            ),
        )
        sends = driver.client.deliver(replicas[0].node_id, duplicate)
        assert sends == []
