"""Differential tests for the memoizing verification pipeline.

The §4 safety argument requires that caching never changes a verdict: for any
stream of signature and certificate checks — including tampered signatures,
wrong-signer attributions, unknown signers, duplicates, and retransmission
patterns — the cached :class:`~repro.core.verification.Verifier` must agree
exactly with the uncached backend, for both the HMAC-registry and RSA-FDH
schemes.
"""

from __future__ import annotations

import random

import pytest

from repro.core import make_system, verification
from repro.core.certificates import (
    PrepareCertificate,
    WriteCertificate,
    genesis_prepare_certificate,
)
from repro.core.statements import prepare_reply_statement, write_reply_statement
from repro.core.timestamp import ZERO_TS
from repro.core.verification import Verifier
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature
from repro.encoding import canonical_encode

#: (scheme name, number of randomized operations) — RSA is slower, so fewer.
BACKENDS = [("hmac", 200), ("rsa", 30)]


def _statement_pool(rng: random.Random) -> list:
    pool = [canonical_encode(("stmt", i, rng.randbytes(8))) for i in range(12)]
    pool += [prepare_reply_statement(ZERO_TS.succ(f"client:{i}"), hash_value(i))
             for i in range(4)]
    return pool


@pytest.mark.parametrize("scheme_name,ops", BACKENDS)
def test_signature_verdicts_match_uncached_backend(scheme_name, ops):
    config = make_system(scheme=scheme_name)
    config.registry.register("client:alice")
    rng = random.Random(1234)
    signers = list(config.quorums.replica_ids) + ["client:alice"]
    statements = _statement_pool(rng)

    signatures = [
        config.scheme.sign(rng.choice(signers), rng.choice(statements))
        for _ in range(10)
    ]

    for _ in range(ops):
        statement = rng.choice(statements)
        roll = rng.random()
        if roll < 0.4:
            # A genuine signature, possibly over a different statement.
            sig = rng.choice(signatures)
        elif roll < 0.6:
            # Tampered signature bytes.
            base = rng.choice(signatures)
            tampered = bytearray(base.value)
            tampered[rng.randrange(len(tampered))] ^= 0xFF
            sig = Signature(signer=base.signer, value=bytes(tampered))
        elif roll < 0.8:
            # Wrong-signer attribution of a genuine signature value.
            base = rng.choice(signatures)
            sig = Signature(signer=rng.choice(signers), value=base.value)
        else:
            # Unknown signer.
            sig = Signature(signer=f"ghost:{rng.randrange(3)}", value=rng.randbytes(16))
        expected = config.scheme.verify(sig, statement)
        assert config.verifier.verify(sig, statement) == expected
        # Repeat immediately (duplicate/retransmission): still identical.
        assert config.verifier.verify(sig, statement) == expected


@pytest.mark.parametrize("scheme_name,ops", BACKENDS)
def test_certificate_verdicts_match_uncached_backend(scheme_name, ops):
    config = make_system(scheme=scheme_name)
    rng = random.Random(99)
    replicas = list(config.quorums.replica_ids)
    quorum = config.quorum_size

    def prepare_cert(ts, value, signer_pool):
        h = hash_value(value)
        statement = prepare_reply_statement(ts, h)
        sigs = tuple(
            config.scheme.sign(r, statement) for r in signer_pool
        )
        return PrepareCertificate(ts=ts, value_hash=h, signatures=sigs)

    ts = ZERO_TS.succ("client:w")
    certs = [
        genesis_prepare_certificate(),
        prepare_cert(ts, "v1", replicas[:quorum]),
        prepare_cert(ts, "v2", replicas[:quorum]),
        # Too few signers: not a quorum.
        prepare_cert(ts, "v1", replicas[: quorum - 1]),
        # Duplicate signer.
        prepare_cert(ts, "v1", [replicas[0]] * quorum),
    ]
    # Tampered: one signature byte flipped inside an otherwise valid cert.
    good = certs[1]
    broken = bytearray(good.signatures[0].value)
    broken[0] ^= 0x01
    certs.append(
        PrepareCertificate(
            ts=good.ts,
            value_hash=good.value_hash,
            signatures=(Signature(good.signatures[0].signer, bytes(broken)),)
            + good.signatures[1:],
        )
    )
    # Write certificates too (both valid and truncated).
    wstmt = write_reply_statement(ts)
    wsigs = tuple(config.scheme.sign(r, wstmt) for r in replicas[:quorum])
    certs.append(WriteCertificate(ts=ts, signatures=wsigs))
    certs.append(WriteCertificate(ts=ts, signatures=wsigs[:-1]))

    for _ in range(ops):
        cert = rng.choice(certs)
        expected = cert.is_valid(config.scheme, config.quorums)
        assert config.verifier.certificate_valid(cert) == expected
        # A duplicate certificate (retransmission) must agree as well.
        assert config.verifier.certificate_valid(cert) == expected


def test_unregistered_signer_verdict_not_stuck_after_registration():
    """Registration only grows; a pre-registration False must not be cached."""
    config_a = make_system()
    config_b = make_system()  # same master seed -> same derived keys
    config_b.registry.register("client:late")
    sig = config_b.scheme.sign("client:late", b"hello")

    # Before registration in A: both cached and uncached say False.
    assert config_a.scheme.verify(sig, b"hello") is False
    assert config_a.verifier.verify(sig, b"hello") is False

    config_a.registry.register("client:late")

    # After registration the very same signature must now verify.
    assert config_a.scheme.verify(sig, b"hello") is True
    assert config_a.verifier.verify(sig, b"hello") is True


def test_negative_certificate_verdicts_not_cached_across_registration():
    """A cert invalid only because signers were unknown must recover."""
    config_a = make_system()
    config_b = make_system()
    config_b.registry.register("client:w")
    ts = ZERO_TS.succ("client:w")
    h = hash_value("v")
    statement = prepare_reply_statement(ts, h)
    sigs = tuple(
        config_b.scheme.sign(r, statement)
        for r in config_b.quorums.replica_ids[: config_b.quorum_size]
    )
    cert = PrepareCertificate(ts=ts, value_hash=h, signatures=sigs)

    fresh = make_system(seed=b"different-world")
    assert fresh.verifier.certificate_valid(cert) is False
    # Same-world verifier: valid, and stays valid on the cached path.
    assert config_a.verifier.certificate_valid(cert) is True
    assert config_a.verifier.certificate_valid(cert) is True


def _prepare_cert(config, value):
    ts = ZERO_TS.succ("client:w")
    stmt = prepare_reply_statement(ts, hash_value(value))
    sigs = tuple(
        config.scheme.sign(r, stmt)
        for r in config.quorums.replica_ids[: config.quorum_size]
    )
    return PrepareCertificate(ts=ts, value_hash=hash_value(value), signatures=sigs)


def test_certificate_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(verification, "MAX_CERTIFICATES", 2)
    config = make_system()
    verifier = Verifier(config.scheme, config.quorums)
    certs = [_prepare_cert(config, i) for i in range(5)]
    for cert in certs:
        assert verifier.certificate_valid(cert) is True
    assert len(verifier._certificate_memo) == 2
    assert verifier.stats.certificate_evictions == 3
    # An evicted certificate re-validates correctly (just a miss, not an error).
    assert verifier.certificate_valid(certs[0]) is True
    assert verifier.stats.certificate_hits == 0


def test_stats_count_hits_and_misses():
    config = make_system()
    verifier = config.verifier
    replica = config.quorums.replica_ids[0]
    sig = config.scheme.sign(replica, b"counted")

    # Every signature check reaches the backend.
    assert verifier.verify(sig, b"counted") is True
    assert verifier.verify(sig, b"counted") is True
    assert verifier.stats.signature_checks == 2
    assert config.scheme.stats.verifies == 2

    cert = _prepare_cert(config, "v")
    assert verifier.certificate_valid(cert) is True
    assert verifier.certificate_valid(cert) is True
    assert verifier.stats.certificate_checks == 2
    assert verifier.stats.certificate_hits == 1
    # The second validation did not re-verify the inner signatures.
    assert verifier.stats.signature_checks == 2 + config.quorum_size

    verifier.stats.reset()
    assert verifier.stats.signature_checks == 0
    assert verifier.stats.certificate_hit_rate == 0.0
