"""Unit tests for the base-protocol replica (Figure 2)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import Timestamp, ZERO_TS
from repro.core.certificates import genesis_prepare_certificate
from repro.core.config import NamespaceWriters, Variant
from repro.core.messages import (
    PrepareReply,
    ReadReply,
    ReadRequest,
    ReadTsReply,
    ReadTsRequest,
    WriteReply,
)
from repro.core.replica import BftBcReplica
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature
from repro.obs.instrumentation import Instrumentation
from repro.storage import FileLogStore

from tests.conftest import make_write_cert
from tests.helpers import ProtocolKit, make_replicas


@pytest.fixture
def kit(config):
    return ProtocolKit(config)


@pytest.fixture
def replicas(config):
    return make_replicas(config)


@pytest.fixture
def replica(replicas):
    return replicas[0]


class TestPhase1:
    def test_read_ts_returns_genesis_initially(self, kit, replica):
        reply = replica.handle(kit.client, ReadTsRequest(nonce=kit.nonce()))
        assert isinstance(reply, ReadTsReply)
        assert reply.cert.is_genesis
        assert reply.ts_vouch is None  # base protocol: no vouches

    def test_reply_signature_binds_nonce(self, kit, replica, config):
        from repro.core.statements import read_ts_reply_statement

        nonce = kit.nonce()
        reply = replica.handle(kit.client, ReadTsRequest(nonce=nonce))
        statement = read_ts_reply_statement(reply.cert, nonce)
        assert config.scheme.verify(reply.signature, statement)

    def test_answers_unconditionally(self, kit, replica):
        """§5.1 liveness: phase-1 requests are answered unconditionally."""
        for _ in range(5):
            assert replica.handle("anyone", ReadTsRequest(nonce=kit.nonce()))


class TestPhase2:
    def test_valid_prepare_approved(self, kit, replica):
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ(kit.client)
        request = kit.prepare_request(genesis, ts, ("v", 1))
        reply = replica.handle(kit.client, request)
        assert isinstance(reply, PrepareReply)
        assert reply.ts == ts
        assert kit.client in replica.plist
        assert replica.plist[kit.client].ts == ts

    def test_non_successor_timestamp_discarded(self, kit, replica):
        """Figure 2 phase 2 step 1: t must equal succ(prepC.ts, c)."""
        genesis = genesis_prepare_certificate()
        huge = Timestamp(10**9, kit.client)
        request = kit.prepare_request(genesis, huge, ("v", 1))
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-ts"] == 1
        assert kit.client not in replica.plist

    def test_wrong_client_in_successor_discarded(self, kit, replica, config):
        """The timestamp's id must be the signer's (succ embeds c)."""
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ("client:bob")  # alice signs a bob-flavoured ts
        request = kit.prepare_request(genesis, ts, ("v", 1))
        assert replica.handle(kit.client, request) is None

    def test_bad_request_signature_discarded(self, kit, replica):
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ(kit.client)
        request = kit.prepare_request(genesis, ts, ("v", 1))
        tampered = type(request)(
            prev_cert=request.prev_cert,
            ts=request.ts,
            value_hash=b"\x00" * 32,  # hash no longer matches the signature
            write_cert=None,
            justify_cert=None,
            signature=request.signature,
        )
        assert replica.handle(kit.client, tampered) is None
        assert replica.stats.discards["bad-signature"] == 1

    def test_invalid_prev_certificate_discarded(self, kit, replica):
        from repro.core.certificates import PrepareCertificate

        fake_prev = PrepareCertificate(
            ts=Timestamp(5, "client:bob"),
            value_hash=b"\x01" * 32,
            signatures=tuple(
                Signature(signer=f"replica:{i}", value=b"\x00" * 32) for i in range(3)
            ),
        )
        request = kit.prepare_request(fake_prev, fake_prev.ts.succ(kit.client), ("v", 1))
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-prepare-cert"] == 1

    def test_unauthorized_client_discarded(self, kit, replica, config):
        # alice no longer allowed
        config.authorized_writers = NamespaceWriters(extra={"client:bob"})
        genesis = genesis_prepare_certificate()
        request = kit.prepare_request(genesis, ZERO_TS.succ(kit.client), ("v", 1))
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["unauthorized"] == 1

    def test_one_outstanding_prepare_per_client(self, kit, replica):
        """Figure 2 phase 2 step 3: conflicting entry => discard."""
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ(kit.client)
        first = kit.prepare_request(genesis, ts, ("v", 1))
        assert replica.handle(kit.client, first) is not None
        second = kit.prepare_request(genesis, ts, ("v", 2))  # different hash
        assert replica.handle(kit.client, second) is None
        assert replica.stats.discards["plist-conflict"] == 1

    def test_identical_retransmission_reapproved(self, kit, replica):
        """Retransmitting the same prepare must succeed (liveness)."""
        genesis = genesis_prepare_certificate()
        ts = ZERO_TS.succ(kit.client)
        request = kit.prepare_request(genesis, ts, ("v", 1))
        assert replica.handle(kit.client, request) is not None
        assert replica.handle(kit.client, request) is not None
        assert len(replica.plist) == 1

    def test_write_certificate_clears_plist(self, kit, replicas, config):
        """Figure 2 phase 2 step 2: wcert advances write_ts and prunes."""
        replica = replicas[0]
        prepare_cert, wcert = kit.full_write(replicas, ("v", 1))
        assert kit.client in replica.plist
        # Next prepare presents the write certificate: entry is cleared, new
        # entry admitted.
        ts2 = prepare_cert.ts.succ(kit.client)
        request = kit.prepare_request(prepare_cert, ts2, ("v", 2), write_cert=wcert)
        reply = replica.handle(kit.client, request)
        assert isinstance(reply, PrepareReply)
        assert replica.write_ts == wcert.ts
        assert replica.plist[kit.client].ts == ts2

    def test_invalid_write_certificate_discarded(self, kit, replica, config):
        genesis = genesis_prepare_certificate()
        bad_wcert = make_write_cert(config, Timestamp(1, kit.client))
        forged = type(bad_wcert)(ts=Timestamp(2, kit.client), signatures=bad_wcert.signatures)
        request = kit.prepare_request(
            genesis, ZERO_TS.succ(kit.client), ("v", 1), write_cert=forged
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-write-cert"] == 1

    def test_plist_not_pruned_when_gc_disabled(self, kit, config):
        config.gc_plist = False
        replicas = make_replicas(config)
        replica = replicas[0]
        prepare_cert, wcert = kit.full_write(replicas, ("v", 1))
        request = kit.prepare_request(
            prepare_cert, prepare_cert.ts.succ(kit.client), ("v", 2), write_cert=wcert
        )
        # With GC off the stale entry stays and conflicts: discard.
        assert replica.handle(kit.client, request) is None

    def test_stale_timestamp_not_added_to_plist(self, kit, replicas):
        """Phase 2 step 4: entries are only added when t > writeTS."""
        replica = replicas[0]
        prepare_cert, wcert = kit.full_write(replicas, ("v", 1))
        # A second client whose id sorts *below* alice's proposes from the
        # genesis certificate: its successor (1, "client:aaa") is <= writeTS
        # (1, "client:alice") once the write certificate is presented.
        kit2 = ProtocolKit(replica.config, client="client:aaa")
        request = kit2.prepare_request(
            genesis_prepare_certificate(),
            ZERO_TS.succ("client:aaa"),
            ("w", 1),
            write_cert=wcert,
        )
        reply = replica.handle("client:aaa", request)
        # Reply is still sent (paper: step 5 happens regardless) ...
        assert isinstance(reply, PrepareReply)
        # ... but the entry was not admitted: its ts <= writeTS.
        assert "client:aaa" not in replica.plist


class TestPhase3:
    def test_valid_write_installs(self, kit, replicas):
        replica = replicas[0]
        prepare_cert, _ = kit.full_write(replicas, ("v", 1))
        assert replica.data == ("v", 1)
        assert replica.pcert == prepare_cert
        assert replica.stats.writes_installed == 1

    def test_write_reply_even_when_stale(self, kit, replicas):
        """Replica replies WRITE-REPLY even if it does not install (older
        timestamp), so slow writers still complete."""
        replica = replicas[0]
        prepare_cert, _ = kit.full_write(replicas, ("v", 1))
        request = kit.write_request(("v", 1), prepare_cert)
        reply = replica.handle(kit.client, request)
        assert isinstance(reply, WriteReply)
        assert replica.stats.writes_installed == 1  # not installed twice

    def test_value_hash_mismatch_discarded(self, kit, replicas):
        replica = replicas[0]
        p_max = kit.read_ts(replicas)
        ts = p_max.ts.succ(kit.client)
        request = kit.prepare_request(p_max, ts, ("v", 1))
        cert = kit.collect_prepare(replicas, request)
        bad = kit.write_request(("not", "the-value"), cert)
        assert replica.handle(kit.client, bad) is None
        assert replica.stats.discards["bad-hash"] == 1
        assert replica.data is None

    def test_invalid_certificate_discarded(self, kit, replica):
        from repro.core.certificates import PrepareCertificate

        fake = PrepareCertificate(
            ts=Timestamp(1, kit.client),
            value_hash=hash_value(("v", 1)),
            signatures=tuple(
                Signature(signer=f"replica:{i}", value=b"\x00" * 32) for i in range(3)
            ),
        )
        request = kit.write_request(("v", 1), fake)
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-prepare-cert"] == 1

    def test_older_write_does_not_overwrite(self, kit, replicas):
        replica = replicas[0]
        cert1, wcert1 = kit.full_write(replicas, ("v", 1))
        cert2, _ = kit.full_write(replicas, ("v", 2), write_cert=wcert1)
        assert replica.data == ("v", 2)
        # Replay the older write: value must not regress.
        replica.handle(kit.client, kit.write_request(("v", 1), cert1))
        assert replica.data == ("v", 2)
        assert replica.pcert == cert2


class TestReads:
    def test_read_returns_data_and_cert(self, kit, replicas):
        replica = replicas[0]
        prepare_cert, _ = kit.full_write(replicas, ("v", 1))
        reply = replica.handle(kit.client, ReadRequest(nonce=kit.nonce()))
        assert isinstance(reply, ReadReply)
        assert reply.value == ("v", 1)
        assert reply.cert == prepare_cert

    def test_read_of_genesis(self, kit, replica):
        reply = replica.handle(kit.client, ReadRequest(nonce=kit.nonce()))
        assert reply.value is None
        assert reply.cert.is_genesis


class TestStrictStop:
    def test_revoked_client_rejected_in_strict_mode(self, config):
        config.strict_stop = True
        kit = ProtocolKit(config)
        replicas = make_replicas(config)
        prepare_cert, _ = kit.full_write(replicas, ("v", 1))
        request = kit.write_request(("v", 1), prepare_cert)
        config.registry.revoke(kit.client)
        assert replicas[0].handle(kit.client, request) is None
        assert replicas[0].stats.discards["revoked"] == 1

    def test_revoked_client_replay_allowed_by_default(self, config):
        kit = ProtocolKit(config)
        replicas = make_replicas(config)
        prepare_cert, _ = kit.full_write(replicas, ("v", 1))
        request = kit.write_request(("v", 1), prepare_cert)
        config.registry.revoke(kit.client)
        # Default stop semantics: the pre-signed message still works.
        assert isinstance(replicas[0].handle("colluder", request), WriteReply)


class TestBackgroundSigning:
    def test_presigned_write_reply_used(self, config):
        config.background_signing = True
        kit = ProtocolKit(config)
        replicas = make_replicas(config)
        replica = replicas[0]
        _, wcert = kit.full_write(replicas, ("v", 1))
        assert replica.stats.background_signs >= 1
        # The presigned reply is consumed: a second write still completes and
        # yields a verifiable write certificate.
        _, wcert2 = kit.full_write(replicas, ("v", 2), write_cert=wcert)
        assert wcert2.is_valid(config.scheme, config.quorums)


class TestUnknownMessages:
    def test_unknown_message_discarded(self, kit, replica):
        class Weird:
            KIND = "WEIRD"

        assert replica.handle(kit.client, Weird()) is None
        assert replica.stats.discards["unknown-kind"] == 1


class TestNoReferenceCycles:
    """A replica, its durable state and its store hold one another only
    weakly, so dropping the last reference frees them at once.  A cycle
    anywhere would keep a torn-down deployment resident until the next
    full collection, and peak memory would depend on when that runs."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("instrumented", [False, True], ids=["plain", "timed"])
    def test_a_dropped_replica_is_freed_by_reference_counting(
        self, config, variant, instrumented, tmp_path
    ):
        instrumentation = Instrumentation() if instrumented else None
        store = FileLogStore(tmp_path / "wal", fsync="never")
        gc.collect()
        gc.disable()
        try:
            replica = variant.replica_cls(
                "replica:0", config, store, instrumentation=instrumentation
            )
            reply = replica.handle("client:alice", ReadTsRequest(nonce=b"n" * 16))
            assert isinstance(reply, ReadTsReply)
            with replica.store.group():
                pass
            refs = [weakref.ref(replica), weakref.ref(replica._state)]
            del replica, reply
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
            store.close()
