"""The signature-free fast path: protocol, replica handlers, fallback,
recovery, and the closed-form cost model.

Covers the tentpole claims directly: common-case writes perform zero
public-key signature operations, proof evidence convinces exactly the
replica that checks its own MAC column, transfer points upgrade to signed
vouches, and every degraded run falls back to the signed protocol with no
safety loss.
"""

from __future__ import annotations

import pytest

from repro import LinkProfile, build_cluster
from repro.analysis import CostModel, WRITE_PHASES
from repro.core import make_system
from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.fast_replica import FastBftBcReplica
from repro.core.messages import (
    FastPrepReply,
    FastPrepRequest,
    FastWriteReply,
    FastWriteRequest,
    message_from_wire,
    message_to_wire,
)
from repro.core.statements import (
    fast_prep_request_statement,
    fast_vouch_statement,
    fast_write_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.commitments import (
    ProofOfWriting,
    make_commitment,
    make_mac_row,
    make_opening,
)
from repro.crypto.hashing import hash_value
from repro.errors import CertificateError, OperationFailedError
from repro.sim.faults import FaultSchedule
from repro.sim.runner import ClusterOptions
from repro.sim.workload import make_scripts
from repro.spec import check_register_linearizable
from repro.storage import FileLogStore

CLIENT = "client:alice"


# -- direct-drive helpers ---------------------------------------------------


def fast_system():
    config = make_system(1)
    config.registry.register(CLIENT)
    replicas = {
        rid: FastBftBcReplica(rid, config)
        for rid in config.quorums.replica_ids
    }
    return config, replicas


def make_fast_prep(config, value, nonce, *, client=CLIENT, write_cert=None):
    value_hash = hash_value(value)
    opening = make_opening(client, value_hash, nonce)
    commitment = make_commitment(opening)
    statement = fast_prep_request_statement(
        client, value_hash, commitment, write_cert, nonce
    )
    request = FastPrepRequest(
        client=client,
        value_hash=value_hash,
        commitment=commitment,
        nonce=nonce,
        write_cert=write_cert,
        macs=make_mac_row(
            config.authenticator, client, config.quorums.replica_ids, statement
        ),
    )
    return request, opening


def make_fast_write(config, ts, value, proof, nonce, *, client=CLIENT):
    statement = fast_write_request_statement(
        client, ts, hash_value(value), proof.commitment, nonce
    )
    return FastWriteRequest(
        client=client,
        ts=ts,
        value=value,
        proof=proof,
        nonce=nonce,
        macs=make_mac_row(
            config.authenticator, client, config.quorums.replica_ids, statement
        ),
    )


def run_fast_write(config, replicas, value, nonce, *, write_cert=None):
    """Drive one complete fast write against every replica.

    Returns ``(ts, proof, write_cert)`` where ``write_cert`` is the
    proof-evidence certificate the real client would attach to its next
    FAST-PREP.
    """
    prep, opening = make_fast_prep(config, value, nonce, write_cert=write_cert)
    replies = {
        rid: replica.handle(CLIENT, prep) for rid, replica in replicas.items()
    }
    assert all(isinstance(r, FastPrepReply) for r in replies.values())
    ts_values = {r.prepared_ts for r in replies.values()}
    assert len(ts_values) == 1 and None not in ts_values
    ts = ts_values.pop()
    proof = ProofOfWriting(
        commitment=prep.commitment,
        opening=opening,
        rows=tuple(sorted((r.replica, r.row) for r in replies.values())),
    )
    write = make_fast_write(config, ts, value, proof, nonce + b"w")
    ack_rows = {}
    for rid, replica in replicas.items():
        reply = replica.handle(CLIENT, write)
        assert isinstance(reply, FastWriteReply) and reply.ts == ts
        ack_rows[rid] = reply.row
    next_cert = WriteCertificate(
        ts=ts,
        signatures=(),
        evidence="proof",
        rows=tuple(sorted(ack_rows.items())),
    )
    return ts, proof, next_cert


# -- end-to-end: the tentpole numbers --------------------------------------


class TestFastPathEndToEnd:
    def test_writes_are_signature_free(self):
        cluster = build_cluster(f=1, variant="fastpath", seed=20)
        node = cluster.add_client("w")
        node.run_script([("write", ("w", i)) for i in range(5)])
        cluster.run(max_time=60)
        assert cluster.config.scheme.stats.signs == 0
        assert cluster.metrics.fast_path_rate() == 1.0
        assert cluster.metrics.fallback_rate() == 0.0
        assert cluster.metrics.phase_histogram("write") == {2: 5}
        assert WRITE_PHASES["fastpath"] == (2, 5)

    def test_write_signature_closed_forms(self):
        """Measured counters equal the CostModel closed forms exactly."""
        cluster = build_cluster(f=1, variant="fastpath", seed=21)
        cluster.run_scripts({"w": [("write", ("warm",))]})
        signs0 = cluster.config.scheme.stats.signs
        macs0 = cluster.config.authenticator.macs_computed
        cluster.run_scripts({"w": [("write", ("w", i)) for i in range(3)]})
        model = CostModel(cluster.config.quorums)
        assert cluster.config.scheme.stats.signs - signs0 == 0
        assert model.write_signature_ops("fastpath") == 0
        assert (
            cluster.config.authenticator.macs_computed - macs0
            == 3 * model.fast_write_macs_computed()
        )

    def test_signed_variants_match_signature_closed_form(self):
        for variant in ("base", "optimized"):
            cluster = build_cluster(f=1, variant=variant, seed=22)
            cluster.run_scripts({"w": [("write", ("warm",))]})
            signs0 = cluster.config.scheme.stats.signs
            cluster.run_scripts({"w": [("write", ("w", i)) for i in range(3)]})
            model = CostModel(cluster.config.quorums)
            assert (
                cluster.config.scheme.stats.signs - signs0
                == 3 * model.write_signature_ops(variant)
            )

    def test_reads_converge_and_vouch_lazily(self):
        cluster = build_cluster(f=1, variant="fastpath", seed=23)
        node = cluster.add_client("w")
        node.run_script([("write", ("w", 0)), ("read", None), ("read", None)])
        cluster.run(max_time=60)
        assert node.client.op.result == ("w", 0)
        assert cluster.metrics.phase_histogram("read") == {1: 2}
        # Vouches are produced once per (ts, h) and cached: the second read
        # costs no further vouch signatures.
        vouches = sum(
            r.stats.vouch_signs for r in cluster.replicas.values()
        )
        assert vouches == cluster.config.quorums.n
        # Vouch signs are accounted separately from foreground ones, and the
        # two together explain every signature the scheme ever produced
        # (reads sign their replies; the writes signed nothing).
        foreground = sum(
            r.stats.foreground_signs for r in cluster.replicas.values()
        )
        assert vouches + foreground == cluster.config.scheme.stats.signs

    def test_fresh_reader_after_fast_writes(self):
        """A client that never wrote reads the fast-written value in one
        phase — the vouch upgrade makes the write-back transferable."""
        cluster = build_cluster(f=1, variant="fastpath", seed=24)
        writer = cluster.add_client("w")
        writer.run_script([("write", ("w", i)) for i in range(3)])
        cluster.run(max_time=60)
        reader = cluster.add_client("r")
        reader.run_script([("read", None)])
        cluster.run(max_time=60)
        assert reader.client.op.result == ("w", 2)
        assert check_register_linearizable(cluster.history).ok

    def test_wal_record_closed_form(self):
        cluster = build_cluster(f=1, variant="fastpath", seed=25)
        cluster.run_scripts({"w": [("write", ("warm",))]})
        appends0 = cluster.metrics.storage_totals().appends
        cluster.run_scripts({"w": [("write", ("w", i)) for i in range(2)]})
        per_write = (
            cluster.metrics.storage_totals().appends - appends0
        ) / 2 / cluster.config.quorums.n
        model = CostModel(cluster.config.quorums)
        assert per_write == model.write_log_records("fastpath") == 8

    @pytest.mark.xfail(
        strict=True,
        raises=OperationFailedError,
        reason=(
            "known liveness hole under contention on a reliable network: "
            "client:w0's FastReadOperation stalls in phase 1 holding replies "
            "from all four replicas, each naming a different proof-evidence "
            "group (<14,w1>, <15,w2>, <14,w6>, <15,w5>) with a single "
            "pvouch; rule 2 demotes every group so _advance returns [], and "
            "on_retransmit sends nothing because the round already has its "
            "quorum, while the replicas all agree on <28,w5>.  The fix "
            "(re-polling) needs a safety argument in PROTOCOL.md first."
        ),
    )
    def test_contended_reads_finish_on_a_reliable_network(self):
        seed = 1
        cluster = build_cluster(
            f=1,
            variant="fastpath",
            seed=seed,
            profile=LinkProfile(min_delay=0.001, max_delay=0.02),
        )
        names = [f"w{i}" for i in range(8)]
        cluster.run_scripts(
            make_scripts(names, 20, write_fraction=0.5, seed=seed),
            max_time=30,
        )


# -- fallback ---------------------------------------------------------------


class TestFallback:
    def _blocked(self, replica_ids, count, heal_at=None):
        schedule = FaultSchedule()
        for rid in replica_ids[:count]:
            schedule.block_kinds(0.0, rid, ("FAST-PREP", "FAST-WRITE"))
            if heal_at is not None:
                schedule.unblock_kinds(heal_at, rid)
        return schedule

    def test_fallback_when_fast_quorum_unreachable(self):
        cluster = build_cluster(f=1, variant="fastpath", seed=30)
        cluster.install_faults(
            self._blocked(cluster.config.quorums.replica_ids, 2)
        )
        node = cluster.add_client("w")
        node.run_script([("write", ("w", 0)), ("read", None)])
        cluster.run(max_time=120)
        assert cluster.metrics.fallback_rate() == 1.0
        assert cluster.metrics.phase_histogram("write") == {4: 1}
        assert node.client.op.result == ("w", 0)
        assert check_register_linearizable(cluster.history).ok

    def test_fast_path_resumes_after_heal(self):
        cluster = build_cluster(f=1, variant="fastpath", seed=31)
        cluster.install_faults(
            self._blocked(cluster.config.quorums.replica_ids, 2, heal_at=1.0)
        )
        node = cluster.add_client("w")
        node.run_script(
            [("write", ("w", 0)), ("write", ("w", 1))], think_time=1.2
        )
        cluster.run(max_time=120)
        samples = cluster.metrics.by_kind("write")
        assert [s.fell_back for s in samples] == [True, False]
        assert [s.fast_path for s in samples] == [False, True]
        assert check_register_linearizable(cluster.history).ok

    @pytest.mark.parametrize("drop_rate", [0.1, 0.25])
    def test_lossy_network_stays_linearizable(self, drop_rate):
        cluster = build_cluster(
            f=1,
            variant="fastpath",
            seed=32,
            profile=LinkProfile(
                min_delay=0.001,
                max_delay=0.01,
                drop_rate=drop_rate,
                duplicate_rate=0.05,
                reorder_rate=0.1,
            ),
        )
        cluster.run_scripts(
            {
                "a": [("write", ("a", i)) for i in range(4)] + [("read", None)],
                "b": [("write", ("b", i)) for i in range(4)] + [("read", None)],
            },
            max_time=300,
        )
        assert check_register_linearizable(cluster.history).ok


# -- replica handlers (direct drive) ----------------------------------------


class TestFastHandlers:
    def test_complete_fast_write_installs_proof_cert(self):
        config, replicas = fast_system()
        ts, _proof, _cert = run_fast_write(config, replicas, ("v", 1), b"n1")
        assert ts == Timestamp(1, CLIENT)
        for replica in replicas.values():
            assert replica.pcert.evidence == "proof"
            assert replica.pcert.ts == ts
            assert replica.data == ("v", 1)
            assert replica.stats.foreground_signs == 0

    def test_unauthorized_client_discarded(self):
        config, replicas = fast_system()
        config.registry.register("client:mallory")
        config.authorize_writer(CLIENT)  # real ACL: alice only
        request, _ = make_fast_prep(
            config, ("v",), b"n", client="client:mallory"
        )
        replica = replicas["replica:0"]
        assert replica.handle("client:mallory", request) is None
        assert replica.stats.discards["unauthorized"] == 1

    def test_bad_request_mac_discarded(self):
        config, replicas = fast_system()
        good, _ = make_fast_prep(config, ("v",), b"n")
        tampered = FastPrepRequest(
            client=good.client,
            value_hash=good.value_hash,
            commitment=good.commitment,
            nonce=b"other-nonce",  # statement changes, MACs do not
            write_cert=None,
            macs=good.macs,
        )
        replica = replicas["replica:0"]
        assert replica.handle(CLIENT, tampered) is None
        assert replica.stats.discards["bad-mac"] == 1

    def test_bad_opening_discarded(self):
        config, replicas = fast_system()
        prep, opening = make_fast_prep(config, ("v",), b"n")
        replies = {
            rid: replica.handle(CLIENT, prep)
            for rid, replica in replicas.items()
        }
        ts = next(iter(replies.values())).prepared_ts
        bad_proof = ProofOfWriting(
            commitment=prep.commitment,
            opening=bytes(32),  # does not open the commitment
            rows=tuple(sorted((r.replica, r.row) for r in replies.values())),
        )
        write = make_fast_write(config, ts, ("v",), bad_proof, b"nw")
        replica = replicas["replica:0"]
        assert replica.handle(CLIENT, write) is None
        assert replica.stats.discards["bad-opening"] == 1

    def test_insufficient_rows_discarded_as_bad_proof(self):
        config, replicas = fast_system()
        prep, opening = make_fast_prep(config, ("v",), b"n")
        replies = {
            rid: replica.handle(CLIENT, prep)
            for rid, replica in replicas.items()
        }
        ts = next(iter(replies.values())).prepared_ts
        rows = tuple(sorted((r.replica, r.row) for r in replies.values()))
        thin_proof = ProofOfWriting(
            commitment=prep.commitment,
            opening=opening,
            rows=rows[: config.quorum_size - 1],
        )
        write = make_fast_write(config, ts, ("v",), thin_proof, b"nw")
        replica = replicas["replica:0"]
        assert replica.handle(CLIENT, write) is None
        assert replica.stats.discards["bad-proof"] == 1

    def test_forged_rows_do_not_count(self):
        """Rows from non-replica ackers are ignored; a Byzantine client
        cannot pad a proof with identities it controls."""
        config, replicas = fast_system()
        prep, opening = make_fast_prep(config, ("v",), b"n")
        reply = replicas["replica:0"].handle(CLIENT, prep)
        forged = tuple(
            (f"client:sock{i}", reply.row) for i in range(3)
        )
        proof = ProofOfWriting(
            commitment=prep.commitment,
            opening=opening,
            rows=tuple(sorted((("replica:0", reply.row),) + forged)),
        )
        write = make_fast_write(config, reply.prepared_ts, ("v",), proof, b"nw")
        replica = replicas["replica:1"]
        assert replica.handle(CLIENT, write) is None
        assert replica.stats.discards["bad-proof"] == 1

    def test_commitment_pinned_per_predicted_ts(self):
        """One fast prepare, one commitment: a second FAST-PREP for the same
        predicted timestamp with a different commitment is refused (the
        reply still arrives, MAC'd, with ``prepared_ts=None``)."""
        config, replicas = fast_system()
        replica = replicas["replica:0"]
        first, _ = make_fast_prep(config, ("v", 1), b"n1")
        reply = replica.handle(CLIENT, first)
        assert reply.prepared_ts is not None
        second, _ = make_fast_prep(config, ("v", 2), b"n2")
        refusal = replica.handle(CLIENT, second)
        assert isinstance(refusal, FastPrepReply)
        assert refusal.prepared_ts is None
        # Same request again (a retransmission) is still acknowledged.
        again = replica.handle(CLIENT, first)
        assert again.prepared_ts == reply.prepared_ts

    def test_fastc_gc_after_install(self):
        config, replicas = fast_system()
        ts, _proof, cert = run_fast_write(config, replicas, ("v", 1), b"n1")
        for replica in replicas.values():
            # write_ts only advances when a later request carries the write
            # certificate, so the consumed entry is still pinned for now.
            assert replica.fastc.get(CLIENT).ts == ts
        # The second write attaches the proof-evidence write certificate,
        # exactly as the real client does; applying it advances write_ts
        # past ts=1 and prunes the consumed entry, re-pinning at ts=2.
        prep, _ = make_fast_prep(config, ("v", 2), b"n2", write_cert=cert)
        for replica in replicas.values():
            reply = replica.handle(CLIENT, prep)
            assert reply.prepared_ts == Timestamp(2, CLIENT)
            assert replica.write_ts == ts
            assert replica.fastc.get(CLIENT).ts == Timestamp(2, CLIENT)
            assert len(replica.fastc) == 1


    def test_pruned_certificate_is_rechecked_and_still_accepted(self):
        """A certificate older than write_ts is still accepted, and each
        presentation re-checks the replica's own column: no verdict is kept."""
        config, replicas = fast_system()
        _ts, _proof, old = run_fast_write(config, replicas, ("v", 0), b"n0")
        cert = old
        for i in range(1, 4):
            _ts, _proof, cert = run_fast_write(
                config, replicas, ("v", i), b"n%d" % i, write_cert=cert
            )
        replica = replicas["replica:0"]
        assert replica.write_ts > old.ts
        before = config.authenticator.macs_checked
        assert replica._write_certificate_valid(old)
        assert config.authenticator.macs_checked == before + len(old.rows)
        assert replica._write_certificate_valid(old)
        assert config.authenticator.macs_checked == before + 2 * len(old.rows)


# -- certificates and transfer ----------------------------------------------


class TestProofEvidence:
    def test_proof_cert_never_validates_via_shared_verifier(self):
        """Third parties cannot be convinced by MAC evidence: the shared
        verifier refuses proof certificates outright (and therefore never
        caches a wrong positive)."""
        config, replicas = fast_system()
        _ts, _proof, _wcert = run_fast_write(config, replicas, ("v", 1), b"n1")
        cert = replicas["replica:0"].pcert
        assert cert.evidence == "proof"
        with pytest.raises(CertificateError):
            cert.validate(config.scheme, config.quorums)
        assert not config.verifier.certificate_valid(cert)

    def test_own_column_acceptance_is_per_replica(self):
        config, replicas = fast_system()
        run_fast_write(config, replicas, ("v", 1), b"n1")
        cert = replicas["replica:0"].pcert
        for replica in replicas.values():
            assert replica._certificate_valid(cert)

    def test_vouch_certificate_is_transferable(self):
        config, replicas = fast_system()
        ts, _proof, _wcert = run_fast_write(config, replicas, ("v", 1), b"n1")
        value_hash = hash_value(("v", 1))
        vouches = []
        for replica in replicas.values():
            sig = replica._pvouch()
            assert sig is not None
            assert config.scheme.verify(sig, fast_vouch_statement(ts, value_hash))
            vouches.append(sig)
        cert = PrepareCertificate(
            ts=ts,
            value_hash=value_hash,
            signatures=tuple(vouches[: config.f + 1]),
            evidence="vouch",
        )
        # f+1 vouches validate through the shared verifier: transferable.
        assert config.verifier.certificate_valid(cert)
        thin = PrepareCertificate(
            ts=ts,
            value_hash=value_hash,
            signatures=tuple(vouches[:1]),
            evidence="vouch",
        )
        assert not config.verifier.certificate_valid(thin)

    def test_fast_message_wire_round_trips(self):
        config, replicas = fast_system()
        prep, opening = make_fast_prep(config, ("v", 1), b"n1")
        assert message_from_wire(message_to_wire(prep)) == prep
        reply = replicas["replica:0"].handle(CLIENT, prep)
        assert message_from_wire(message_to_wire(reply)) == reply
        proof = ProofOfWriting(
            commitment=prep.commitment,
            opening=opening,
            rows=(("replica:0", reply.row),),
        )
        write = make_fast_write(config, reply.prepared_ts, ("v", 1), proof, b"nw")
        assert message_from_wire(message_to_wire(write)) == write


# -- recovery ---------------------------------------------------------------


class TestFastRecovery:
    def test_fastc_survives_crash_recovery(self, tmp_path):
        config = make_system(1)
        config.registry.register(CLIENT)
        rid = config.quorums.replica_ids[0]
        store = FileLogStore(tmp_path / "r0")
        replica = FastBftBcReplica(rid, config, store=store)
        prep, _ = make_fast_prep(config, ("v", 1), b"n1")
        reply = replica.handle(CLIENT, prep)
        assert reply.prepared_ts is not None
        fingerprint = replica.state_fingerprint()
        store.crash()
        twin = FastBftBcReplica(rid, config, store=store)
        twin.recover()
        entry = twin.fastc.get(CLIENT)
        assert entry is not None
        assert entry.ts == reply.prepared_ts
        assert entry.commitment == prep.commitment
        assert twin.state_fingerprint() == fingerprint
        # The pinning rule survives recovery: a different commitment for
        # the same predicted timestamp is still refused.
        other, _ = make_fast_prep(config, ("v", 2), b"n2")
        assert twin.handle(CLIENT, other).prepared_ts is None

    def test_pre_fastpath_snapshot_restores(self, tmp_path):
        """A snapshot written by an optimized replica (no ``fastc`` key)
        restores cleanly under the fast replica."""
        from repro.core.replica import OptimizedBftBcReplica

        config = make_system(1)
        config.registry.register(CLIENT)
        rid = config.quorums.replica_ids[0]
        store = FileLogStore(tmp_path / "r0")
        old = OptimizedBftBcReplica(rid, config, store=store)
        old.store.write_snapshot(old._state.snapshot_wire())
        new = FastBftBcReplica(rid, config, store=store)
        new.recover()
        assert len(new.fastc) == 0
