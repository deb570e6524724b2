"""Every silent-discard branch increments the right ``ReplicaStats`` counter.

Replicas drop invalid traffic without replying (§3.2's defence is silence,
not errors), so the ``stats.discards`` counters are the only observable
evidence of *why* a message died.  These tests pin each validation-failure
branch to its reason string across the base, optimized, and strong replica
variants.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro import build_cluster
from repro.cluster import DeploymentSpec, ReplicaGroup
from repro.core import make_system
from repro.core.certificates import PrepareCertificate, genesis_prepare_certificate
from repro.core.messages import (
    Message,
    ReadTsPrepRequest,
    ReadTsRequest,
    WriteRequest,
    message_wire_bytes,
)
from repro.core.operations import Send
from repro.core.replica import BftBcReplica, OptimizedBftBcReplica
from repro.core.statements import read_ts_prep_request_statement
from repro.core.timestamp import ZERO_TS
from repro.crypto.hashing import hash_value
from repro.net.mux import MuxEndpoint

from tests.conftest import make_write_cert
from tests.helpers import ProtocolKit, make_replicas

VARIANTS = ["base", "optimized", "strong"]


def build(variant):
    config = make_system(
        f=1, seed=b"discard-" + variant.encode(), strong=(variant == "strong")
    )
    kit = ProtocolKit(config)
    cls = OptimizedBftBcReplica if variant == "optimized" else BftBcReplica
    replicas = make_replicas(config, cls)
    return config, kit, replicas


def justify_for(kit, config, variant):
    """Strong-mode prepares must justify their timestamp; others need not."""
    return make_write_cert(config, ZERO_TS) if variant == "strong" else None


def valid_prepare(kit, config, variant, value=("v", 1)):
    genesis = genesis_prepare_certificate()
    return kit.prepare_request(
        genesis,
        ZERO_TS.succ(kit.client),
        value,
        justify_cert=justify_for(kit, config, variant),
    )


@pytest.mark.parametrize("variant", VARIANTS)
class TestPrepareDiscards:
    def test_bad_signature(self, variant):
        config, kit, replicas = build(variant)
        replica = replicas[0]
        request = valid_prepare(kit, config, variant)
        # Same signature, different payload: the statement no longer matches.
        forged = dataclasses.replace(request, value_hash=hash_value(("x", 9)))
        assert replica.handle(kit.client, forged) is None
        assert replica.stats.discards["bad-signature"] == 1

    def test_stale_timestamp(self, variant):
        config, kit, replicas = build(variant)
        replica = replicas[0]
        genesis = genesis_prepare_certificate()
        # Skipping ahead two slots breaks ts = succ(prevC.ts, c).
        stale = kit.prepare_request(
            genesis,
            ZERO_TS.succ(kit.client).succ(kit.client),
            ("v", 1),
            justify_cert=justify_for(kit, config, variant),
        )
        assert replica.handle(kit.client, stale) is None
        assert replica.stats.discards["bad-ts"] == 1

    def test_invalid_prev_certificate(self, variant):
        config, kit, replicas = build(variant)
        kit.full_write(
            replicas, ("v", 1), justify_cert=justify_for(kit, config, variant)
        )
        replica = replicas[0]
        # A genuine certificate re-stamped with a different timestamp: the
        # signatures no longer cover the claimed statement.
        pcert = replica.pcert
        bogus = PrepareCertificate(
            ts=pcert.ts.succ(kit.client),
            value_hash=pcert.value_hash,
            signatures=pcert.signatures,
        )
        request = kit.prepare_request(
            bogus,
            bogus.ts.succ(kit.client),
            ("v", 2),
            justify_cert=justify_for(kit, config, variant),
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-prepare-cert"] == 1

    def test_conflicting_plist_entry(self, variant):
        config, kit, replicas = build(variant)
        replica = replicas[0]
        justify = justify_for(kit, config, variant)
        first = valid_prepare(kit, config, variant, value=("v", 1))
        assert replica.handle(kit.client, first) is not None
        # Same client, same slot, different value: one outstanding prepare
        # per client (the at-most-one lurking write hinges on this).
        conflicting = valid_prepare(kit, config, variant, value=("v", 2))
        assert replica.handle(kit.client, conflicting) is None
        assert replica.stats.discards["plist-conflict"] == 1

    def test_invalid_write_certificate(self, variant):
        config, kit, replicas = build(variant)
        justify = justify_for(kit, config, variant)
        _, wcert = kit.full_write(replicas, ("v", 1), justify_cert=justify)
        replica = replicas[0]
        bogus = dataclasses.replace(wcert, ts=wcert.ts.succ(kit.client))
        request = kit.prepare_request(
            replica.pcert,
            replica.pcert.ts.succ(kit.client),
            ("v", 2),
            write_cert=bogus,
            justify_cert=wcert if variant == "strong" else None,
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-write-cert"] == 1

    def test_unauthorized_client(self, variant):
        config, kit, replicas = build(variant)
        replica = replicas[0]
        outsider = ProtocolKit(config, client="client:mallory")
        # Mallory holds a key (so the request is well signed) but the ACL
        # names only the legitimate writer.
        config.authorize_writer(kit.client)
        request = valid_prepare(outsider, config, variant)
        assert replica.handle(outsider.client, request) is None
        assert replica.stats.discards["unauthorized"] == 1


@pytest.mark.parametrize("variant", VARIANTS)
class TestWriteDiscards:
    def test_bad_signature(self, variant):
        config, kit, replicas = build(variant)
        pcert, _ = kit.full_write(
            replicas, ("v", 1), justify_cert=justify_for(kit, config, variant)
        )
        replica = replicas[0]
        good = kit.write_request(("v", 1), pcert)
        forged = dataclasses.replace(good, value=("tampered", 1))
        before = replica.stats.discards["bad-signature"]
        assert replica.handle(kit.client, forged) is None
        assert replica.stats.discards["bad-signature"] == before + 1

    def test_invalid_certificate(self, variant):
        config, kit, replicas = build(variant)
        pcert, _ = kit.full_write(
            replicas, ("v", 1), justify_cert=justify_for(kit, config, variant)
        )
        replica = replicas[0]
        bogus = PrepareCertificate(
            ts=pcert.ts.succ(kit.client),
            value_hash=pcert.value_hash,
            signatures=pcert.signatures,
        )
        request = kit.write_request(("v", 1), bogus)
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-prepare-cert"] == 1

    def test_value_hash_mismatch(self, variant):
        config, kit, replicas = build(variant)
        pcert, _ = kit.full_write(
            replicas, ("v", 1), justify_cert=justify_for(kit, config, variant)
        )
        replica = replicas[0]
        request = kit.write_request(("other", 2), pcert)
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-hash"] == 1


class TestStrongOnlyDiscards:
    def test_missing_justify(self):
        config, kit, replicas = build("strong")
        replica = replicas[0]
        request = kit.prepare_request(
            genesis_prepare_certificate(), ZERO_TS.succ(kit.client), ("v", 1)
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["missing-justify"] == 1

    def test_invalid_justify_certificate(self):
        config, kit, replicas = build("strong")
        replica = replicas[0]
        justify = make_write_cert(config, ZERO_TS)
        bogus = dataclasses.replace(justify, ts=ZERO_TS.succ(kit.client))
        request = kit.prepare_request(
            genesis_prepare_certificate(),
            ZERO_TS.succ(kit.client),
            ("v", 1),
            justify_cert=bogus,
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-justify-cert"] == 1

    def test_justify_timestamp_mismatch(self):
        config, kit, replicas = build("strong")
        kit.full_write(replicas, ("v", 1), justify_cert=make_write_cert(config, ZERO_TS))
        replica = replicas[0]
        # Justify certifies ZERO_TS but the proposal claims a later slot.
        request = kit.prepare_request(
            replica.pcert,
            replica.pcert.ts.succ(kit.client),
            ("v", 2),
            justify_cert=make_write_cert(config, ZERO_TS),
        )
        assert replica.handle(kit.client, request) is None
        assert replica.stats.discards["bad-justify-ts"] == 1


class TestOptimizedOnlyDiscards:
    def test_read_ts_prep_bad_signature(self):
        config, kit, replicas = build("optimized")
        replica = replicas[0]
        vh = hash_value(("v", 1))
        nonce = kit.nonce()
        statement = read_ts_prep_request_statement(vh, None, nonce)
        message = ReadTsPrepRequest(
            value_hash=hash_value(("other", 2)),  # statement mismatch
            write_cert=None,
            nonce=nonce,
            signature=config.scheme.sign(kit.client, statement),
        )
        assert replica.handle(kit.client, message) is None
        assert replica.stats.discards["bad-signature"] == 1


def test_unknown_message_kind():
    config, kit, replicas = build("base")
    replica = replicas[0]

    class Mystery:
        KIND = "MYSTERY"

    assert replica.handle(kit.client, Mystery()) is None
    assert replica.stats.discards["unknown-kind"] == 1


@dataclasses.dataclass(frozen=True)
class RetiredBatch(Message):
    """A frame of the retired ``BATCH`` kind, forged without registering it:
    a ``msgs`` tuple of encoded messages, as a pre-deletion batching client
    sent it."""

    KIND = "BATCH"
    payloads: tuple = ()

    def to_wire(self):
        return {"msgs": self.payloads}


def batch_of_one_read_ts(kit):
    """A ``BATCH`` frame wrapping a valid READ-TS.  No kind of that name is
    registered, so the frame must die at the parse boundary."""
    request = ReadTsRequest(nonce=kit.nonce())
    return RetiredBatch(payloads=(message_wire_bytes(request),))


def test_batch_frame_is_an_unknown_kind_on_a_sim_host():
    cluster = build_cluster(f=1, seed=3)
    kit = ProtocolKit(cluster.config)
    replica = cluster.replicas["replica:0"]
    handled = replica.stats.handled
    cluster.network.send(kit.client, "replica:0", batch_of_one_read_ts(kit))
    cluster.settle(1.0)
    assert cluster.network.stats.dropped_by_reason == {"parse-failure": 1}
    assert replica.stats.handled == handled
    assert replica.stats.replies == 0


def test_batch_frame_is_an_unknown_kind_on_a_socket_host():
    async def main():
        config = make_system(f=1, seed=b"discard-batch-tcp")
        kit = ProtocolKit(config)
        group = await ReplicaGroup.start(
            DeploymentSpec(transport="tcp"), config, node_ids=["replica:0"]
        )
        server = group.servers["replica:0"]
        replica = group.replicas["replica:0"]
        handled = replica.stats.handled
        endpoint = MuxEndpoint(group.addrs)
        try:
            await endpoint.connect()
            batch = batch_of_one_read_ts(kit)
            await endpoint.send(kit.client, [Send(dest="replica:0", message=batch)])
            for _ in range(200):
                if server.dropped_by_reason["parse-failure"]:
                    break
                await asyncio.sleep(0.01)
        finally:
            await endpoint.close()
            await group.stop()
        assert server.dropped_by_reason == {"parse-failure": 1}
        assert replica.stats.handled == handled
        assert replica.stats.replies == 0

    asyncio.run(main())
