"""Unit tests for the §7 strong-mode replica checks."""

from __future__ import annotations

import pytest

from repro.core.certificates import genesis_prepare_certificate
from repro.core.messages import PrepareReply, ReadRequest, ReadTsRequest
from repro.core.statements import write_reply_statement
from repro.core.timestamp import ZERO_TS

from tests.conftest import make_write_cert
from tests.helpers import ProtocolKit, make_replicas


@pytest.fixture
def kit(strong_config):
    return ProtocolKit(strong_config)


@pytest.fixture
def replicas(strong_config):
    return make_replicas(strong_config)


@pytest.fixture
def replica(replicas):
    return replicas[0]


class TestVouches:
    def test_read_ts_reply_carries_vouch(self, kit, replica, strong_config):
        reply = replica.handle(kit.client, ReadTsRequest(nonce=kit.nonce()))
        assert reply.ts_vouch is not None
        statement = write_reply_statement(reply.cert.ts)
        assert strong_config.scheme.verify(reply.ts_vouch, statement)

    def test_read_reply_carries_vouch(self, kit, replica, strong_config):
        reply = replica.handle(kit.client, ReadRequest(nonce=kit.nonce()))
        assert reply.ts_vouch is not None

    def test_vouches_assemble_into_write_certificate(self, kit, replicas, strong_config):
        from repro.core.certificates import WriteCertificate

        vouches = []
        for replica in replicas[: strong_config.quorum_size]:
            reply = replica.handle(kit.client, ReadTsRequest(nonce=kit.nonce()))
            vouches.append(reply.ts_vouch)
        cert = WriteCertificate(ts=ZERO_TS, signatures=tuple(vouches))
        cert.validate(strong_config.scheme, strong_config.quorums)


class TestJustifyChecks:
    def test_prepare_without_justify_discarded(self, kit, replica):
        genesis = genesis_prepare_certificate()
        request = kit.prepare_request(genesis, ZERO_TS.succ(kit.client), ("v", 1))
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["missing-justify"] == 1

    def test_prepare_with_valid_justify_approved(self, kit, replica, strong_config):
        genesis = genesis_prepare_certificate()
        justify = make_write_cert(strong_config, ZERO_TS)
        request = kit.prepare_request(
            genesis, ZERO_TS.succ(kit.client), ("v", 1), justify_cert=justify
        )
        assert isinstance(replica.handle(kit.client, request), PrepareReply)

    def test_justify_timestamp_mismatch_discarded(self, kit, replica, strong_config):
        from repro.core.timestamp import Timestamp

        genesis = genesis_prepare_certificate()
        # Justify proves ts (5, bob) completed, but the proposal must then be
        # succ((5, bob), alice) = (6, alice); proposing succ(genesis) fails.
        justify = make_write_cert(strong_config, Timestamp(5, "client:bob"))
        request = kit.prepare_request(
            genesis, ZERO_TS.succ(kit.client), ("v", 1), justify_cert=justify
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-justify-ts"] == 1

    def test_forged_justify_discarded(self, kit, replica, strong_config):
        from repro.core.certificates import WriteCertificate
        from repro.crypto.signatures import Signature

        genesis = genesis_prepare_certificate()
        forged = WriteCertificate(
            ts=ZERO_TS,
            signatures=tuple(
                Signature(signer=f"replica:{i}", value=b"\x00" * 32) for i in range(3)
            ),
        )
        request = kit.prepare_request(
            genesis, ZERO_TS.succ(kit.client), ("v", 1), justify_cert=forged
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-justify-cert"] == 1

    def test_full_strong_write_chain(self, kit, replicas, strong_config):
        """Two consecutive strong writes, each justified by the previous."""
        justify1 = make_write_cert(strong_config, ZERO_TS)
        cert1, wcert1 = kit.full_write(replicas, ("v", 1), justify_cert=justify1)
        cert2, wcert2 = kit.full_write(
            replicas, ("v", 2), write_cert=wcert1, justify_cert=wcert1
        )
        assert replicas[0].data == ("v", 2)
        assert cert2.ts == cert1.ts.succ(kit.client)
