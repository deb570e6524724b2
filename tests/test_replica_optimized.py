"""Unit tests for the optimized replica (§6.2): merged phase 1/2, optlist,
and the equal-timestamp hash tie-break."""

from __future__ import annotations

import pytest

from repro.core import make_system
from repro.core.certificates import genesis_prepare_certificate
from repro.core.messages import (
    PrepareReply,
    ReadTsPrepReply,
    ReadTsPrepRequest,
    WriteReply,
)
from repro.core.replica import OptimizedBftBcReplica
from repro.core.statements import (
    prepare_reply_statement,
    read_ts_prep_request_statement,
)
from repro.core.timestamp import ZERO_TS
from repro.crypto.hashing import hash_value

from tests.helpers import ProtocolKit, make_replicas


@pytest.fixture
def config():
    cfg = make_system(f=1, seed=b"opt-test")
    return cfg


@pytest.fixture
def kit(config):
    return ProtocolKit(config)


@pytest.fixture
def replicas(config):
    return make_replicas(config, cls=OptimizedBftBcReplica)


@pytest.fixture
def replica(replicas):
    return replicas[0]


def make_rtsp(kit, value, write_cert=None):
    vh = hash_value(value)
    nonce = kit.nonce()
    statement = read_ts_prep_request_statement(
        vh, write_cert, nonce
    )
    return ReadTsPrepRequest(
        value_hash=vh,
        write_cert=write_cert,
        nonce=nonce,
        signature=kit.config.scheme.sign(kit.client, statement),
    )


class TestMergedPhase:
    def test_prepare_on_behalf(self, kit, replica, config):
        request = make_rtsp(kit, ("v", 1))
        reply = replica.handle(kit.client, request)
        assert isinstance(reply, ReadTsPrepReply)
        assert reply.prepared_ts == ZERO_TS.succ(kit.client)
        assert reply.prep_sig is not None
        inner = prepare_reply_statement(reply.prepared_ts, hash_value(("v", 1)))
        assert config.scheme.verify(reply.prep_sig, inner)
        assert kit.client in replica.optlist
        assert kit.client not in replica.plist  # normal list untouched

    def test_idempotent_retransmission(self, kit, replica):
        request = make_rtsp(kit, ("v", 1))
        first = replica.handle(kit.client, request)
        second = replica.handle(kit.client, request)
        assert first.prepared_ts == second.prepared_ts
        assert len(replica.optlist) == 1

    def test_conflicting_hash_gets_plain_reply(self, kit, replica):
        """§6.2: no prepare when the client already has an entry for a
        different hash; the reply degrades to a normal phase-1 response."""
        assert replica.handle(kit.client, make_rtsp(kit, ("v", 1))).prepared_ts
        reply = replica.handle(kit.client, make_rtsp(kit, ("v", 2)))
        assert isinstance(reply, ReadTsPrepReply)
        assert reply.prepared_ts is None
        assert reply.prep_sig is None
        assert replica.optlist[kit.client].value_hash == hash_value(("v", 1))

    def test_conflict_with_normal_plist_blocks_opt_prepare(self, kit, replica):
        """An entry in the *normal* prepare list also blocks the fast path."""
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ(kit.client)
        prep = kit.prepare_request(genesis, ts, ("other", 9))
        assert isinstance(replica.handle(kit.client, prep), PrepareReply)
        reply = replica.handle(kit.client, make_rtsp(kit, ("v", 1)))
        assert reply.prepared_ts is None

    def test_same_pair_in_both_lists_allowed(self, kit, replica):
        """The same (t, h) may sit in both lists (the paper allows one entry
        per list; they may coincide)."""
        assert replica.handle(kit.client, make_rtsp(kit, ("v", 1))).prepared_ts
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ(kit.client)
        prep = kit.prepare_request(genesis, ts, ("v", 1))
        assert isinstance(replica.handle(kit.client, prep), PrepareReply)
        assert kit.client in replica.plist and kit.client in replica.optlist

    def test_bad_signature_discarded(self, kit, replica):
        request = make_rtsp(kit, ("v", 1))
        tampered = ReadTsPrepRequest(
            value_hash=b"\x00" * 32,
            write_cert=None,
            nonce=request.nonce,
            signature=request.signature,
        )
        assert replica.handle(kit.client, tampered) is None

    def test_write_cert_processed_and_lists_pruned(self, kit, replicas):
        replica = replicas[0]
        # Full write via the explicit path to populate state.
        prepare_cert, wcert = kit.full_write(replicas, ("v", 1))
        assert kit.client in replica.plist
        reply = replica.handle(kit.client, make_rtsp(kit, ("v", 2), write_cert=wcert))
        assert replica.write_ts == wcert.ts
        assert kit.client not in replica.plist  # pruned by the certificate
        assert reply.prepared_ts == prepare_cert.ts.succ(kit.client)


class TestHashTieBreak:
    def test_equal_ts_larger_hash_wins(self, kit, replicas, config):
        """§6.2 phase 3: on an equal timestamp keep the larger hash."""
        replica = replicas[0]
        # Obtain two prepare certificates for the same timestamp: one via the
        # optimistic list, one via the normal list (the §6.3 scenario).
        reply = replica.handle(kit.client, make_rtsp(kit, ("v", "A")))
        ts = reply.prepared_ts
        sigs_a = []
        for r in replicas:
            rep = r.handle(kit.client, make_rtsp(kit, ("v", "A")))
            if rep and rep.prep_sig:
                sigs_a.append(rep.prep_sig)
        from repro.core.certificates import PrepareCertificate

        cert_a = PrepareCertificate(
            ts=ts, value_hash=hash_value(("v", "A")), signatures=tuple(sigs_a[:3])
        )
        prep_b = kit.prepare_request(genesis_prepare_certificate(), ts, ("v", "B"))
        sigs_b = [
            r.handle(kit.client, prep_b).signature
            for r in replicas
            if isinstance(r.handle(kit.client, prep_b), PrepareReply)
        ]
        cert_b = PrepareCertificate(
            ts=ts, value_hash=hash_value(("v", "B")), signatures=tuple(sigs_b[:3])
        )
        # Install both writes at one replica, in both orders.
        low, high = sorted([("v", "A"), ("v", "B")], key=hash_value)
        cert_low = cert_a if hash_value(("v", "A")) == hash_value(low) else cert_b
        cert_high = cert_b if cert_low is cert_a else cert_a
        replica.handle(kit.client, kit.write_request(low, cert_low))
        assert replica.data == low
        replica.handle(kit.client, kit.write_request(high, cert_high))
        assert replica.data == high  # larger hash overwrote
        replica.handle(kit.client, kit.write_request(low, cert_low))
        assert replica.data == high  # smaller hash cannot regress

    def test_equal_ts_same_value_idempotent(self, kit, replicas):
        replica = replicas[0]
        prepare_cert, _ = kit.full_write(replicas, ("v", 1))
        installed = replica.stats.writes_installed
        replica.handle(kit.client, kit.write_request(("v", 1), prepare_cert))
        assert replica.stats.writes_installed == installed


class TestOptPrepareGuard:
    def test_no_opt_prepare_at_stale_timestamp(self, kit, replicas, config):
        """A replica that missed a write must not opt-prepare below writeTS."""
        lagging = replicas[0]
        others = replicas[1:]
        # Complete a write at the other three replicas only.
        p_max = kit.read_ts(others)
        ts = p_max.ts.succ(kit.client)
        request = kit.prepare_request(p_max, ts, ("v", 1))
        cert = kit.collect_prepare(others, request)
        wcert = kit.collect_write(others, kit.write_request(("v", 1), cert))
        assert wcert is not None
        # The lagging replica learns of the completed write via the wcert but
        # still has the genesis certificate; succ(genesis) <= writeTS.
        reply = lagging.handle(kit.client, make_rtsp(kit, ("v", 2), write_cert=wcert))
        assert reply.prepared_ts is None
