"""Tests for hashing, keys, signature schemes, MACs, and nonces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.statements import prepare_reply_statement
from repro.core.timestamp import Timestamp
from repro.crypto import (
    DIGEST_SIZE,
    HmacSignatureScheme,
    KeyRegistry,
    MacAuthenticator,
    NonceSource,
    RsaSignatureScheme,
    Signature,
    digest,
    digest_bytes,
    hash_value,
)
from repro.errors import (
    CryptoError,
    InvalidSignatureError,
    KeyRevokedError,
    UnknownSignerError,
)


class TestHashing:
    def test_digest_size(self):
        assert len(digest_bytes(b"abc")) == DIGEST_SIZE

    def test_hash_value_deterministic(self):
        assert hash_value(("a", 1)) == hash_value(("a", 1))

    def test_hash_value_discriminates(self):
        assert hash_value(("a", 1)) != hash_value(("a", 2))

    def test_multi_part_digest_is_unambiguous(self):
        assert digest(b"ab", b"c") != digest(b"a", b"bc")

    def test_list_and_tuple_hash_identically(self):
        assert hash_value([1, 2]) == hash_value((1, 2))


class TestKeyRegistry:
    def test_register_is_idempotent(self):
        registry = KeyRegistry(master_seed=b"s")
        a = registry.register("node:1")
        b = registry.register("node:1")
        assert a == b

    def test_different_nodes_get_different_secrets(self):
        registry = KeyRegistry(master_seed=b"s")
        assert registry.register("a").secret != registry.register("b").secret

    def test_deterministic_from_seed(self):
        a = KeyRegistry(master_seed=b"s").register("n").secret
        b = KeyRegistry(master_seed=b"s").register("n").secret
        assert a == b

    def test_unknown_secret_raises(self):
        registry = KeyRegistry()
        with pytest.raises(UnknownSignerError):
            registry.secret_for("ghost")

    def test_revocation(self):
        registry = KeyRegistry()
        registry.register("n")
        registry.revoke("n")
        assert registry.is_revoked("n")
        with pytest.raises(KeyRevokedError):
            registry.check_may_sign("n")

    def test_revoke_unknown_raises(self):
        with pytest.raises(UnknownSignerError):
            KeyRegistry().revoke("ghost")


@pytest.fixture(params=["hmac", "rsa"])
def scheme(request):
    registry = KeyRegistry(master_seed=b"scheme-test")
    registry.register("alice")
    registry.register("bob")
    if request.param == "hmac":
        return HmacSignatureScheme(registry)
    return RsaSignatureScheme(registry, bits=256)


class TestSignatureSchemes:
    def test_sign_verify_round_trip(self, scheme):
        sig = scheme.sign("alice", b"message")
        assert scheme.verify(sig, b"message")

    def test_wrong_message_rejected(self, scheme):
        sig = scheme.sign("alice", b"message")
        assert not scheme.verify(sig, b"other")

    def test_wrong_signer_attribution_rejected(self, scheme):
        sig = scheme.sign("alice", b"message")
        forged = Signature(signer="bob", value=sig.value)
        assert not scheme.verify(forged, b"message")

    def test_unknown_signer_rejected(self, scheme):
        sig = Signature(signer="ghost", value=b"\x00" * 32)
        assert not scheme.verify(sig, b"message")

    def test_statement_signing(self, scheme):
        statement = prepare_reply_statement(Timestamp(1, "client:a"), b"hash")
        sig = scheme.sign("alice", statement)
        assert scheme.verify(sig, statement)
        assert not scheme.verify(
            sig, prepare_reply_statement(Timestamp(2, "x"), b"hash")
        )

    def test_revoked_signer_cannot_sign(self, scheme):
        scheme.registry.revoke("alice")
        with pytest.raises(KeyRevokedError):
            scheme.sign("alice", b"m")

    def test_old_signatures_survive_revocation(self, scheme):
        """§4.1.1: replays of pre-stop messages still verify."""
        sig = scheme.sign("alice", b"m")
        scheme.registry.revoke("alice")
        assert scheme.verify(sig, b"m")

    def test_stats_counting(self, scheme):
        scheme.stats.reset()
        sig = scheme.sign("alice", b"m")
        scheme.verify(sig, b"m")
        scheme.verify(sig, b"wrong")
        assert scheme.stats.signs == 1
        assert scheme.stats.verifies == 2
        assert scheme.stats.verify_failures == 1

    def test_tampered_signature_rejected(self, scheme):
        sig = scheme.sign("alice", b"m")
        tampered = Signature(signer="alice", value=bytes(sig.value[:-1]) + b"\x00")
        if tampered.value != sig.value:
            assert not scheme.verify(tampered, b"m")


class TestSignatureWire:
    def test_wire_round_trip(self):
        sig = Signature(signer="n", value=b"\x01\x02")
        assert Signature.from_wire(sig.to_wire()) == sig

    def test_malformed_wire(self):
        with pytest.raises(CryptoError):
            Signature.from_wire(("only-one",))
        with pytest.raises(CryptoError):
            Signature.from_wire((1, b"x"))


class TestRsaDeterminism:
    def test_keypair_deterministic(self):
        from repro.crypto.rsa import generate_rsa_keypair

        a = generate_rsa_keypair(b"seed", bits=256)
        b = generate_rsa_keypair(b"seed", bits=256)
        assert a.n == b.n and a.d == b.d

    def test_different_seeds_differ(self):
        from repro.crypto.rsa import generate_rsa_keypair

        assert (
            generate_rsa_keypair(b"s1", bits=256).n
            != generate_rsa_keypair(b"s2", bits=256).n
        )

    def test_small_modulus_rejected(self):
        from repro.crypto.rsa import generate_rsa_keypair

        with pytest.raises(CryptoError):
            generate_rsa_keypair(b"s", bits=64)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_sign_verify_property(self, message):
        from repro.crypto.rsa import generate_rsa_keypair, rsa_sign, rsa_verify

        key = generate_rsa_keypair(b"prop-seed", bits=256)
        sig = rsa_sign(key, message)
        assert rsa_verify(key.public, message, sig)
        assert not rsa_verify(key.public, message + b"x", sig)


class TestMacAuthenticator:
    def test_round_trip(self):
        registry = KeyRegistry(master_seed=b"mac")
        registry.register("a")
        registry.register("b")
        auth = MacAuthenticator(registry)
        tag = auth.mac("a", "b", b"hello")
        assert auth.check("a", "b", b"hello", tag)
        assert auth.check("b", "a", b"hello", tag)  # symmetric session key

    def test_wrong_peer_rejected(self):
        registry = KeyRegistry(master_seed=b"mac")
        for n in ("a", "b", "c"):
            registry.register(n)
        auth = MacAuthenticator(registry)
        tag = auth.mac("a", "b", b"hello")
        assert not auth.check("a", "c", b"hello", tag)

    def test_tampered_message_rejected(self):
        registry = KeyRegistry(master_seed=b"mac")
        registry.register("a")
        registry.register("b")
        auth = MacAuthenticator(registry)
        tag = auth.mac("a", "b", b"hello")
        assert not auth.check("a", "b", b"hellp", tag)


class TestNonces:
    def test_nonces_never_repeat(self):
        source = NonceSource("n", secret=b"s")
        seen = {source.next() for _ in range(1000)}
        assert len(seen) == 1000

    def test_nonce_length(self):
        assert len(NonceSource("n").next()) == 16

    def test_different_nodes_different_nonces(self):
        assert NonceSource("a", b"s").next() != NonceSource("b", b"s").next()


def test_error_hierarchy():
    assert issubclass(KeyRevokedError, CryptoError)
    assert issubclass(UnknownSignerError, CryptoError)
    assert issubclass(InvalidSignatureError, CryptoError)
