"""Unit tests for the optimized write operation (§6)."""

from __future__ import annotations

import pytest

from repro.core import OptimizedBftBcClient, Timestamp, make_system
from repro.core.replica import OptimizedBftBcReplica

from tests.helpers import DirectDriver, ProtocolKit, make_replicas


@pytest.fixture
def config():
    return make_system(f=1, seed=b"opt-ops-test")


@pytest.fixture
def replicas(config):
    return make_replicas(config, cls=OptimizedBftBcReplica)


@pytest.fixture
def driver(config, replicas):
    client = OptimizedBftBcClient("client:alice", config)
    return DirectDriver(client, replicas)


class TestFastPath:
    def test_uncontended_write_takes_two_phases(self, driver):
        op = driver.run_write(("v", 1))
        assert op.done
        assert op.phases == 2
        assert op.fast_path
        assert op.result == Timestamp(1, "client:alice")

    def test_sequential_writes_stay_fast(self, driver):
        for seq in range(1, 5):
            op = driver.run_write(("v", seq))
            assert op.fast_path, f"write {seq} fell off the fast path"
            assert op.result == Timestamp(seq, "client:alice")

    def test_replica_state_consistent_after_fast_write(self, driver, replicas):
        driver.run_write(("v", 1))
        for replica in replicas:
            assert replica.data == ("v", 1)
            assert replica.pcert.ts == Timestamp(1, "client:alice")

    def test_fast_path_with_one_crashed_replica(self, driver, replicas):
        driver.drop(replicas[3].node_id)
        op = driver.run_write(("v", 1))
        assert op.done and op.fast_path


class TestFallback:
    def test_divergent_predictions_fall_back(self, driver, replicas, config):
        """When replicas predict different timestamps, the client must fall
        back to an explicit phase 2 (the §6.1 worked example)."""
        # Desynchronise: another client's write reaches replicas 2,3 only.
        kit = ProtocolKit(config, client="client:bob")
        p_max = kit.read_ts(replicas)
        request = kit.prepare_request(p_max, p_max.ts.succ(kit.client), ("w", 1))
        cert = kit.collect_prepare(replicas, request)
        for replica in replicas[2:]:
            replica.handle(kit.client, kit.write_request(("w", 1), cert))
        assert replicas[0].pcert.ts != replicas[2].pcert.ts
        # Now alice writes: predictions split 2/2, no quorum on one ts.
        op = driver.run_write(("v", 1))
        if not op.done:
            driver.tick()  # the fallback decision fires on the tick
        assert op.done
        assert not op.fast_path
        assert op.phases == 3

    def test_fallback_result_is_still_correct(self, driver, replicas, config):
        kit = ProtocolKit(config, client="client:bob")
        p_max = kit.read_ts(replicas)
        request = kit.prepare_request(p_max, p_max.ts.succ(kit.client), ("w", 1))
        cert = kit.collect_prepare(replicas, request)
        for replica in replicas[2:]:
            replica.handle(kit.client, kit.write_request(("w", 1), cert))
        op = driver.run_write(("v", 1))
        if not op.done:
            driver.tick()
        assert op.done
        # The new write's timestamp dominates bob's.
        assert op.result > Timestamp(1, "client:bob")
        fresh = [r for r in replicas if r.data == ("v", 1)]
        assert len(fresh) >= config.quorum_size

    def test_phase1_sigs_seed_phase2(self, driver, replicas, config):
        """Signatures collected in phase 1 count toward the phase-2 quorum
        when the fallback chooses the same timestamp."""
        # One replica lags (its prediction will differ); others agree.
        kit = ProtocolKit(config, client="client:bob")
        p_max = kit.read_ts(replicas)
        request = kit.prepare_request(p_max, p_max.ts.succ(kit.client), ("w", 1))
        cert = kit.collect_prepare(replicas, request)
        replicas[0].handle(kit.client, kit.write_request(("w", 1), cert))
        # replica 0 predicts succ((1, bob)) = (2, alice); replicas 1-3
        # predict succ(genesis) = (1, alice): 3 >= quorum agree -> fast path
        # actually still wins here.
        op = driver.run_write(("v", 1))
        if not op.done:
            driver.tick()
        assert op.done


class TestFallbackRetransmissionRules:
    """Regression pins for the §6 fast-path abandon rule.

    Two triggers: immediately once no timestamp can still reach a quorum
    (counting silent replicas as potential agreers), and on the first
    retransmission tick after a quorum of replies when the fast path has not
    converged.  These pin the behavior across the phase-engine refactor.
    """

    def _desync(self, replicas, config):
        """Install bob's write at replicas[2:] so predictions split."""
        kit = ProtocolKit(config, client="client:bob")
        p_max = kit.read_ts(replicas)
        request = kit.prepare_request(p_max, p_max.ts.succ(kit.client), ("w", 1))
        cert = kit.collect_prepare(replicas, request)
        for replica in replicas[2:]:
            replica.handle(kit.client, kit.write_request(("w", 1), cert))

    def test_hopeless_split_falls_back_without_a_tick(
        self, driver, replicas, config
    ):
        """2/2 prediction split with all replicas heard: top + silent < |Q|,
        so the fast path is abandoned immediately — no retransmit needed."""
        self._desync(replicas, config)
        op = driver.run_write(("v", 1))
        # The fallback decision itself must have fired during delivery.
        assert op._phase != 1
        assert not op.fast_path
        if not op.done:
            driver.tick()  # only message redelivery, not the decision
        assert op.done
        assert op.phases == 3

    def test_quorum_but_unconverged_falls_back_on_first_tick(
        self, driver, replicas, config
    ):
        """With a 2/1 split and one silent replica, a straggler could still
        tip the majority timestamp to a quorum — the client waits, and
        abandons the fast path only on the first retransmission tick."""
        self._desync(replicas, config)
        driver.drop(replicas[3].node_id)
        op = driver.run_write(("v", 1))
        # Quorum of replies (3), but predictions split 2/1: still phase 1.
        assert not op.done
        assert op._phase == 1
        assert op._collector is not None and op._collector.have_quorum
        driver.tick()
        assert op.done
        assert not op.fast_path
        assert op.phases == 3

    def test_tick_before_quorum_retransmits_instead_of_abandoning(
        self, driver, replicas
    ):
        """Below a quorum of replies a tick must retransmit to the silent
        replicas, never trigger the fallback."""
        driver.drop(replicas[2].node_id, replicas[3].node_id)
        op = driver.run_write(("v", 1))
        assert not op.done
        assert op._phase == 1 and op.phases == 1
        driver.tick()
        assert op._phase == 1 and op.phases == 1  # still collecting phase 1
        missing = set(op._collector.missing())
        assert missing == {replicas[2].node_id, replicas[3].node_id}
        # Once the silent replicas are reachable again, the retransmission
        # completes the fast path (all predictions agree).
        driver.restore(replicas[2].node_id, replicas[3].node_id)
        driver.tick()
        assert op.done and op.fast_path

    def test_duplicate_reply_is_a_single_vote(self, driver, replicas):
        """A duplicated (retransmitted) reply never counts twice."""
        sends = driver.client.begin_write(("v", 1))
        op = driver.client.op
        first = next(s for s in sends if s.dest == replicas[0].node_id)
        reply = replicas[0].handle(driver.client.node_id, first.message)
        assert reply is not None
        driver.client.deliver(replicas[0].node_id, reply)
        driver.client.deliver(replicas[0].node_id, reply)
        assert op._collector.count == 1


class TestOptimizedReads:
    def test_read_after_fast_write(self, driver):
        driver.run_write(("v", 1))
        op = driver.run_read()
        assert op.result == ("v", 1)

    def test_equal_ts_tie_broken_by_hash(self, driver, replicas, config):
        """§6.3: readers may see equal timestamps with different values and
        must return (and write back) the larger-hash one."""
        from repro.core.certificates import PrepareCertificate
        from repro.crypto.hashing import hash_value
        from repro.core.messages import PrepareReply
        from repro.core.certificates import genesis_prepare_certificate
        from repro.core.timestamp import ZERO_TS

        kit = ProtocolKit(config, client="client:evil")
        ts = ZERO_TS.succ(kit.client)
        genesis = genesis_prepare_certificate()
        certs = {}
        for tag in ("A", "B"):
            # Obtain a certificate per value: A via optlist, B via plist.
            if tag == "A":
                from repro.core.messages import ReadTsPrepRequest
                from repro.core.statements import read_ts_prep_request_statement

                value = ("v", tag)
                vh = hash_value(value)
                sigs = []
                for replica in replicas:
                    nonce = kit.nonce()
                    statement = read_ts_prep_request_statement(vh, None, nonce)
                    req = ReadTsPrepRequest(
                        value_hash=vh,
                        write_cert=None,
                        nonce=nonce,
                        signature=config.scheme.sign(kit.client, statement),
                    )
                    reply = replica.handle(kit.client, req)
                    if reply is not None and reply.prep_sig is not None:
                        sigs.append(reply.prep_sig)
                certs[tag] = PrepareCertificate(
                    ts=ts, value_hash=vh, signatures=tuple(sigs[:3])
                )
            else:
                value = ("v", tag)
                req = kit.prepare_request(genesis, ts, value)
                sigs = []
                for replica in replicas:
                    reply = replica.handle(kit.client, req)
                    if isinstance(reply, PrepareReply):
                        sigs.append(reply.signature)
                certs[tag] = PrepareCertificate(
                    ts=ts, value_hash=hash_value(value), signatures=tuple(sigs[:3])
                )
        # Install A at replicas 0,1 and B at replicas 2,3.
        for replica in replicas[:2]:
            replica.handle(kit.client, kit.write_request(("v", "A"), certs["A"]))
        for replica in replicas[2:]:
            replica.handle(kit.client, kit.write_request(("v", "B"), certs["B"]))
        op = driver.run_read()
        assert op.done
        winner = max([("v", "A"), ("v", "B")], key=hash_value)
        assert op.result == winner
        # After the write-back a quorum holds the winner.
        holding = [r for r in replicas if r.data == winner]
        assert len(holding) >= config.quorum_size
