"""Unit tests for the client operation state machines (base protocol),
driven directly against in-memory replicas."""

from __future__ import annotations

import pytest

from repro.core import BftBcClient, Timestamp, make_system
from repro.core.messages import ReadTsReply, WriteReply
from repro.crypto.signatures import Signature
from repro.errors import ProtocolError

from tests.helpers import DirectDriver, make_replicas


@pytest.fixture
def config():
    return make_system(f=1, seed=b"ops-test")


@pytest.fixture
def replicas(config):
    return make_replicas(config)


@pytest.fixture
def driver(config, replicas):
    client = BftBcClient("client:alice", config)
    return DirectDriver(client, replicas)


class TestWriteOperation:
    def test_write_completes_in_three_phases(self, driver, replicas):
        op = driver.run_write(("v", 1))
        assert op.done
        assert op.phases == 3
        assert op.result == Timestamp(1, "client:alice")
        assert all(r.data == ("v", 1) for r in replicas)

    def test_client_retains_write_certificate(self, driver, config):
        driver.run_write(("v", 1))
        cert = driver.client.write_cert
        assert cert is not None
        assert cert.ts == Timestamp(1, "client:alice")
        cert.validate(config.scheme, config.quorums)

    def test_sequential_writes_increment_timestamp(self, driver):
        for seq in range(1, 4):
            op = driver.run_write(("v", seq))
            assert op.result == Timestamp(seq, "client:alice")

    def test_write_with_one_replica_down(self, driver, replicas):
        driver.drop(replicas[3].node_id)
        op = driver.run_write(("v", 1))
        assert op.done  # quorum of 3 out of 4 suffices

    def test_write_stalls_below_quorum(self, driver, replicas):
        driver.drop(replicas[2].node_id, replicas[3].node_id)
        op = driver.run_write(("v", 1))
        assert not op.done

    def test_retransmission_completes_after_recovery(self, driver, replicas):
        driver.drop(replicas[2].node_id, replicas[3].node_id)
        op = driver.run_write(("v", 1))
        assert not op.done
        driver.restore(replicas[2].node_id)
        driver.tick()
        assert op.done

    def test_cannot_start_op_while_busy(self, driver, replicas):
        driver.drop(*[r.node_id for r in replicas])
        driver.run_write(("v", 1))
        with pytest.raises(ProtocolError):
            driver.client.begin_read()

    def test_duplicate_replies_ignored(self, driver, config, replicas):
        """A reply from the same replica counts once per phase."""
        client = driver.client
        sends = client.begin_write(("v", 1))
        replica = replicas[0]
        reply = replica.handle("client:alice", sends[0].message)
        client.deliver(replica.node_id, reply)
        more = client.deliver(replica.node_id, reply)
        assert more == []
        assert not client.op.done

    def test_reply_with_wrong_nonce_rejected(self, driver, config, replicas):
        client = driver.client
        client.begin_write(("v", 1))
        replica = replicas[0]
        from repro.core.messages import ReadTsRequest

        stale = replica.handle("client:alice", ReadTsRequest(nonce=b"\x00" * 16))
        client.deliver(replica.node_id, stale)
        assert len(client.op._collector.replies) == 0

    def test_reply_from_non_replica_rejected(self, driver, config, replicas):
        client = driver.client
        sends = client.begin_write(("v", 1))
        reply = replicas[0].handle("client:alice", sends[0].message)
        client.deliver("client:mallory", reply)
        assert len(client.op._collector.replies) == 0

    def test_misattributed_signature_rejected(self, driver, config, replicas):
        """A Byzantine replica relaying another's reply gains nothing."""
        client = driver.client
        sends = client.begin_write(("v", 1))
        reply = replicas[0].handle("client:alice", sends[0].message)
        client.deliver(replicas[1].node_id, reply)  # replica:1 replays r0's
        assert len(client.op._collector.replies) == 0

    def test_forged_certificate_in_phase1_rejected(self, driver, config, replicas):
        from repro.core.certificates import PrepareCertificate
        from repro.core.statements import read_ts_reply_statement

        client = driver.client
        sends = client.begin_write(("v", 1))
        nonce = sends[0].message.nonce
        fake_cert = PrepareCertificate(
            ts=Timestamp(99, "client:evil"),
            value_hash=b"\x00" * 32,
            signatures=tuple(
                Signature(signer=f"replica:{i}", value=b"\x00" * 32) for i in range(3)
            ),
        )
        # replica:0 signs the envelope honestly but the cert inside is junk.
        envelope_sig = config.scheme.sign(
            "replica:0", read_ts_reply_statement(fake_cert, nonce)
        )
        reply = ReadTsReply(cert=fake_cert, nonce=nonce, signature=envelope_sig)
        client.deliver("replica:0", reply)
        assert len(client.op._collector.replies) == 0


class TestReadOperation:
    def test_read_genesis(self, driver):
        op = driver.run_read()
        assert op.done
        assert op.result is None
        assert op.phases == 1

    def test_read_after_write_one_phase(self, driver):
        driver.run_write(("v", 1))
        op = driver.run_read()
        assert op.result == ("v", 1)
        assert op.phases == 1

    def test_read_write_back_when_replicas_diverge(self, driver, replicas, config):
        # Write reaches only replicas 0..2 (replica 3 down).
        driver.drop(replicas[3].node_id)
        driver.run_write(("v", 1))
        driver.restore(replicas[3].node_id)
        assert replicas[3].data is None
        # Force the stale replica into the read quorum by silencing a fresh
        # one: the quorum {1, 2, 3} has mixed timestamps.
        driver.drop(replicas[0].node_id)
        op = driver.run_read()
        assert op.result == ("v", 1)
        assert op.phases == 2  # write-back phase ran
        assert replicas[3].data == ("v", 1)  # laggard repaired

    def test_read_requires_quorum(self, driver, replicas):
        driver.drop(replicas[0].node_id, replicas[1].node_id)
        op = driver.run_read()
        assert not op.done

    def test_corrupt_value_with_genuine_cert_rejected(self, driver, config, replicas):
        """A reply whose value doesn't hash to the certificate is discarded."""
        from repro.core.messages import ReadReply
        from repro.core.statements import read_reply_statement

        driver.run_write(("v", 1))
        client = driver.client
        sends = client.begin_read()
        nonce = sends[0].message.nonce
        genuine_cert = replicas[0].pcert
        bad_sig = config.scheme.sign(
            "replica:0",
            read_reply_statement(("garbage",), genuine_cert, nonce),
        )
        reply = ReadReply(
            value=("garbage",), cert=genuine_cert, nonce=nonce, signature=bad_sig
        )
        client.deliver("replica:0", reply)
        assert len(client.op._collector.replies) == 0

    def test_concurrent_write_visible_or_not_but_never_garbage(
        self, driver, replicas, config
    ):
        """A read overlapping a partial write returns either old or new value."""
        from tests.helpers import ProtocolKit

        kit = ProtocolKit(config, client="client:bob")
        driver.run_write(("v", 1))
        # bob's write reaches one replica only.
        p_max = kit.read_ts(replicas)
        request = kit.prepare_request(p_max, p_max.ts.succ(kit.client), ("w", 1))
        cert = kit.collect_prepare(replicas, request)
        replicas[0].handle(kit.client, kit.write_request(("w", 1), cert))
        op = driver.run_read()
        assert op.result in (("v", 1), ("w", 1))


class TestWriteBackTargets:
    def test_write_back_sent_only_to_lagging_replicas(self, driver, replicas):
        driver.drop(replicas[3].node_id)
        driver.run_write(("v", 1))
        driver.restore(replicas[3].node_id)
        driver.drop(replicas[0].node_id)  # force the laggard into the quorum
        driver.sent.clear()
        driver.run_read()
        from repro.core.messages import WriteRequest

        write_backs = [
            s for s in driver.sent if isinstance(s.message, WriteRequest)
        ]
        assert write_backs  # a write-back happened
        # Only replicas not known to hold the value are targeted: the stale
        # replica 3 and the silent replica 0 — never the fresh ones.
        assert {s.dest for s in write_backs} == {
            replicas[0].node_id,
            replicas[3].node_id,
        }
