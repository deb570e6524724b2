"""Tests for prepare and write certificates."""

from __future__ import annotations

import pytest

from repro.core import Timestamp, ZERO_TS
from repro.core.certificates import (
    GENESIS_VALUE,
    PrepareCertificate,
    WriteCertificate,
    genesis_prepare_certificate,
)
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature
from repro.errors import CertificateError

from tests.conftest import make_prepare_cert, make_write_cert

TS = Timestamp(1, "client:alice")
VHASH = hash_value(("client:alice", 1, None))


class TestGenesis:
    def test_genesis_is_valid(self, config):
        cert = genesis_prepare_certificate()
        cert.validate(config.scheme, config.quorums)
        assert cert.is_genesis
        assert cert.ts == ZERO_TS
        assert cert.value_hash == hash_value(GENESIS_VALUE)

    def test_genesis_with_wrong_hash_rejected(self, config):
        fake = PrepareCertificate(ts=ZERO_TS, value_hash=b"\x00" * 32, signatures=())
        with pytest.raises(CertificateError):
            fake.validate(config.scheme, config.quorums)

    def test_zero_ts_with_signatures_rejected(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        fake = PrepareCertificate(
            ts=ZERO_TS, value_hash=hash_value(None), signatures=cert.signatures
        )
        with pytest.raises(CertificateError):
            fake.validate(config.scheme, config.quorums)


class TestPrepareCertificate:
    def test_genuine_certificate_validates(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        cert.validate(config.scheme, config.quorums)
        assert cert.is_valid(config.scheme, config.quorums)
        assert cert.h == VHASH

    def test_too_few_signatures_rejected(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        small = PrepareCertificate(
            ts=TS, value_hash=VHASH, signatures=cert.signatures[:-1]
        )
        assert not small.is_valid(config.scheme, config.quorums)

    def test_duplicate_signer_rejected(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        dup = PrepareCertificate(
            ts=TS,
            value_hash=VHASH,
            signatures=cert.signatures[:-1] + (cert.signatures[0],),
        )
        assert not dup.is_valid(config.scheme, config.quorums)

    def test_non_replica_signer_rejected(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        bad_sig = Signature(signer="client:alice", value=cert.signatures[0].value)
        bad = PrepareCertificate(
            ts=TS, value_hash=VHASH, signatures=cert.signatures[:-1] + (bad_sig,)
        )
        assert not bad.is_valid(config.scheme, config.quorums)

    def test_signature_over_wrong_statement_rejected(self, config):
        other = make_prepare_cert(config, Timestamp(2, "client:alice"), VHASH)
        # Claim the signatures are for ts=1 when they signed ts=2.
        forged = PrepareCertificate(ts=TS, value_hash=VHASH, signatures=other.signatures)
        assert not forged.is_valid(config.scheme, config.quorums)

    def test_forged_signature_bytes_rejected(self, config):
        sigs = tuple(
            Signature(signer=f"replica:{i}", value=b"\xab" * 32) for i in range(3)
        )
        forged = PrepareCertificate(ts=TS, value_hash=VHASH, signatures=sigs)
        assert not forged.is_valid(config.scheme, config.quorums)

    def test_wire_round_trip(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        again = PrepareCertificate.from_wire(cert.to_wire())
        assert again == cert
        assert again.is_valid(config.scheme, config.quorums)

    def test_malformed_wire(self):
        with pytest.raises(CertificateError):
            PrepareCertificate.from_wire((1, 2))
        with pytest.raises(CertificateError):
            PrepareCertificate.from_wire(((1, "c"), "not-bytes", ()))

    def test_signers(self, config):
        cert = make_prepare_cert(config, TS, VHASH)
        assert cert.signers() == {"replica:0", "replica:1", "replica:2"}


class TestWriteCertificate:
    def test_genuine_certificate_validates(self, config):
        cert = make_write_cert(config, TS)
        cert.validate(config.scheme, config.quorums)

    def test_too_few_signatures_rejected(self, config):
        cert = make_write_cert(config, TS)
        small = WriteCertificate(ts=TS, signatures=cert.signatures[:-1])
        assert not small.is_valid(config.scheme, config.quorums)

    def test_wrong_timestamp_rejected(self, config):
        cert = make_write_cert(config, TS)
        forged = WriteCertificate(
            ts=Timestamp(9, "client:alice"), signatures=cert.signatures
        )
        assert not forged.is_valid(config.scheme, config.quorums)

    def test_duplicate_signer_rejected(self, config):
        cert = make_write_cert(config, TS)
        dup = WriteCertificate(
            ts=TS, signatures=cert.signatures[:-1] + (cert.signatures[0],)
        )
        assert not dup.is_valid(config.scheme, config.quorums)

    def test_wire_round_trip(self, config):
        cert = make_write_cert(config, TS)
        again = WriteCertificate.from_wire(cert.to_wire())
        assert again == cert

    def test_malformed_wire(self):
        with pytest.raises(CertificateError):
            WriteCertificate.from_wire("nope")


class TestCrossConfig:
    def test_cert_from_other_deployment_rejected(self, config):
        """Certificates signed under a different master seed don't verify."""
        from repro.core import make_system

        other = make_system(f=1, seed=b"other-seed")
        foreign = make_prepare_cert(other, TS, VHASH)
        assert not foreign.is_valid(config.scheme, config.quorums)

    def test_f2_needs_bigger_quorum(self, f2_config):
        cert = make_prepare_cert(f2_config, TS, VHASH)
        assert len(cert.signatures) == 5
        cert.validate(f2_config.scheme, f2_config.quorums)


class TestCertificateProperties:
    """Property-based hardening of certificate validation."""

    def test_no_subset_below_quorum_validates(self, config):
        from itertools import combinations

        cert = make_prepare_cert(config, TS, VHASH)
        for size in range(len(cert.signatures)):
            for subset in combinations(cert.signatures, size):
                partial = PrepareCertificate(
                    ts=TS, value_hash=VHASH, signatures=tuple(subset)
                )
                assert not partial.is_valid(config.scheme, config.quorums)

    def test_any_quorum_subset_of_full_group_validates(self, f2_config):
        """With signatures from all 3f+1 replicas, every 2f+1-subset is a
        valid certificate — quorums are ANY 2f+1 subset (§3.2)."""
        from itertools import combinations

        from repro.core.statements import prepare_reply_statement

        statement = prepare_reply_statement(TS, VHASH)
        all_sigs = tuple(
            f2_config.scheme.sign(f"replica:{i}", statement)
            for i in range(f2_config.n)
        )
        quorum = f2_config.quorum_size
        checked = 0
        for subset in combinations(all_sigs, quorum):
            cert = PrepareCertificate(ts=TS, value_hash=VHASH, signatures=subset)
            assert cert.is_valid(f2_config.scheme, f2_config.quorums)
            checked += 1
            if checked >= 12:  # C(7,5)=21; a sample suffices
                break

    def test_hypothesis_tampered_signature_bytes(self, config):
        from hypothesis import given, settings, strategies as st

        cert = make_prepare_cert(config, TS, VHASH)

        @settings(max_examples=30, deadline=None)
        @given(
            index=st.integers(0, len(cert.signatures) - 1),
            position=st.integers(0, 31),
            bit=st.integers(0, 7),
        )
        def check(index, position, bit):
            sigs = list(cert.signatures)
            original = sigs[index]
            mutated = bytearray(original.value)
            mutated[position % len(mutated)] ^= 1 << bit
            sigs[index] = Signature(signer=original.signer, value=bytes(mutated))
            tampered = PrepareCertificate(
                ts=TS, value_hash=VHASH, signatures=tuple(sigs)
            )
            assert not tampered.is_valid(config.scheme, config.quorums)

        check()
