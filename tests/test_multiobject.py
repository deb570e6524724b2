"""Tests for multi-object deployments (§3.2's generalisation)."""

from __future__ import annotations

import pytest

from repro.core import (
    MultiObjectClient,
    MultiObjectReplica,
    ObjectMessage,
    ScopedSignatureScheme,
    Timestamp,
    make_system,
)
from repro.core.messages import ReadTsRequest, message_to_wire
from repro.core.replica import OptimizedBftBcReplica
from repro.net.simnet import SimNetwork
from repro.sim import MultiObjectClientNode, Scheduler


@pytest.fixture
def config():
    return make_system(f=1, seed=b"multi-test")


def build(config, seed=0, replica_cls=None):
    """A wired multi-object cluster on the simulated network."""
    scheduler = Scheduler()
    network = SimNetwork(scheduler, seed=seed)
    replicas = {}
    for rid in config.quorums.replica_ids:
        kwargs = {} if replica_cls is None else {"replica_cls": replica_cls}
        replica = MultiObjectReplica(rid, config, **kwargs)
        replicas[rid] = replica

        def handler(src, msg, r=replica):
            reply = r.handle(src, msg)
            if reply is not None:
                network.send(r.node_id, src, reply)

        network.register(rid, handler)
    return scheduler, network, replicas


class TestScopedScheme:
    def test_signatures_bound_to_scope(self, config):
        a = ScopedSignatureScheme(config.scheme, "obj-a")
        b = ScopedSignatureScheme(config.scheme, "obj-b")
        sig = a.sign("replica:0", b"statement")
        assert a.verify(sig, b"statement")
        assert not b.verify(sig, b"statement")  # cross-object replay fails
        assert not config.scheme.verify(sig, b"statement")

    def test_shares_registry_and_stats(self, config):
        scoped = ScopedSignatureScheme(config.scheme, "obj-a")
        assert scoped.registry is config.scheme.registry
        assert scoped.stats is config.scheme.stats


class TestEnvelope:
    def test_wire_round_trip(self):
        inner = message_to_wire(ReadTsRequest(nonce=b"\x01" * 16))
        msg = ObjectMessage(obj="accounts/42", payload=inner)
        from repro.core.messages import message_from_wire

        again = message_from_wire(message_to_wire(msg))
        assert again == msg

    def test_non_envelope_discarded_by_replica(self, config):
        replica = MultiObjectReplica("replica:0", config)
        assert replica.handle("client:x", ReadTsRequest(nonce=b"n")) is None
        assert replica.envelope_discards == 1

    def test_garbage_payload_discarded(self, config):
        replica = MultiObjectReplica("replica:0", config)
        bad = ObjectMessage(obj="x", payload={"kind": "NOT-A-KIND"})
        assert replica.handle("client:x", bad) is None
        assert replica.envelope_discards == 1


class TestMultiObjectProtocol:
    def test_objects_are_independent(self, config):
        scheduler, network, replicas = build(config)
        client = MultiObjectClient("client:kv", config)
        node = MultiObjectClientNode(client, network, scheduler)
        node.run_script(
            [
                ("a", "write", ("client:kv", 1, "A")),
                ("b", "write", ("client:kv", 2, "B")),
                ("a", "read", None),
                ("b", "read", None),
            ]
        )
        scheduler.run(until=30, stop_when=lambda: node.done)
        assert node.done
        results = {step[0]: result for step, result in node.results if step[1] == "read"}
        assert results == {
            "a": ("client:kv", 1, "A"),
            "b": ("client:kv", 2, "B"),
        }

    def test_per_object_timestamps_independent(self, config):
        scheduler, network, replicas = build(config)
        client = MultiObjectClient("client:kv", config)
        node = MultiObjectClientNode(client, network, scheduler)
        node.run_script(
            [("a", "write", ("client:kv", i, None)) for i in range(3)]
            + [("b", "write", ("client:kv", 10, None))]
        )
        scheduler.run(until=30, stop_when=lambda: node.done)
        replica = replicas["replica:0"]
        assert replica.object_state("a").pcert.ts == Timestamp(3, "client:kv")
        assert replica.object_state("b").pcert.ts == Timestamp(1, "client:kv")

    def test_concurrent_ops_on_different_objects(self, config):
        """Steps on distinct objects overlap; per-object order is kept."""
        scheduler, network, _ = build(config)
        client = MultiObjectClient("client:kv", config)
        node = MultiObjectClientNode(client, network, scheduler, max_in_flight=4)
        script = [(f"obj-{i}", "write", ("client:kv", i, None)) for i in range(4)]
        node.run_script(script)
        # Before running: all four ops should already be in flight.
        scheduler.run(until=0.0001)
        assert sum(client.busy(f"obj-{i}") for i in range(4)) == 4
        scheduler.run(until=30, stop_when=lambda: node.done)
        assert node.done

    def test_sequential_per_object(self, config):
        scheduler, network, _ = build(config)
        client = MultiObjectClient("client:kv", config)
        node = MultiObjectClientNode(client, network, scheduler)
        node.run_script(
            [
                ("a", "write", ("client:kv", 1, "first")),
                ("a", "write", ("client:kv", 2, "second")),
                ("a", "read", None),
            ]
        )
        scheduler.run(until=30, stop_when=lambda: node.done)
        reads = [r for (step, r) in node.results if step[1] == "read"]
        assert reads == [("client:kv", 2, "second")]

    def test_two_clients_same_object(self, config):
        scheduler, network, _ = build(config)
        c1 = MultiObjectClient("client:one", config)
        c2 = MultiObjectClient("client:two", config)
        n1 = MultiObjectClientNode(c1, network, scheduler)
        n2 = MultiObjectClientNode(c2, network, scheduler)
        n1.run_script([("shared", "write", ("client:one", 1, None))])
        n2.run_script([("shared", "write", ("client:two", 1, None)),
                       ("shared", "read", None)])
        scheduler.run(until=30, stop_when=lambda: n1.done and n2.done)
        read = n2.results[-1][1]
        assert read in (("client:one", 1, None), ("client:two", 1, None))

    def test_optimized_replica_class(self, config):
        scheduler, network, replicas = build(
            config, replica_cls=OptimizedBftBcReplica
        )
        from repro.core import OptimizedBftBcClient

        client = MultiObjectClient(
            "client:kv", config, client_cls=OptimizedBftBcClient
        )
        node = MultiObjectClientNode(client, network, scheduler)
        node.run_script([("a", "write", ("client:kv", 1, None))])
        scheduler.run(until=30, stop_when=lambda: node.done)
        inner = client.object_client("a")
        assert inner.op.phases == 2  # fast path works per object


class TestCrossObjectReplayDefence:
    def test_certificate_from_other_object_rejected(self, config):
        """A WRITE with a prepare certificate earned on object A is discarded
        when replayed against object B."""
        scheduler, network, replicas = build(config)
        client = MultiObjectClient("client:kv", config)
        node = MultiObjectClientNode(client, network, scheduler)
        node.run_script([("a", "write", ("client:kv", 1, "A-data"))])
        scheduler.run(until=30, stop_when=lambda: node.done)

        # Steal the WRITE payload for object "a" and replay it under "b".
        replica = replicas["replica:0"]
        state_a = replica.object_state("a")
        cert_a = state_a.pcert
        assert not cert_a.is_genesis
        from repro.core.statements import write_request_statement
        from repro.core.messages import WriteRequest

        scoped_a = ScopedSignatureScheme(config.scheme, "a")
        statement = write_request_statement(("client:kv", 1, "A-data"), cert_a)
        request = WriteRequest(
            value=("client:kv", 1, "A-data"),
            prepare_cert=cert_a,
            signature=scoped_a.sign("client:kv", statement),
        )
        replay = ObjectMessage(obj="b", payload=message_to_wire(request))
        reply = replica.handle("client:kv", replay)
        assert reply is None
        assert replica.object_state("b").data is None

    @pytest.mark.parametrize("scheme", ["hmac", "rsa"])
    def test_replay_rejected_under_both_backends(self, scheme):
        """Regression: the object scope must bind under HMAC *and* RSA.

        Both halves of a write are replayed from object ``a`` to object
        ``b``: the prepare-request signature (client-signed) and the
        prepare certificate (replica-signed).  Each must fail ``b``'s
        scoped verification, whichever signature backend is active — a
        backend that ignored the scope suffix would accept both.
        """
        config = make_system(f=1, scheme=scheme, seed=b"multi-replay")
        scheduler, network, replicas = build(config)
        client = MultiObjectClient("client:kv", config)
        node = MultiObjectClientNode(client, network, scheduler)
        node.run_script([("a", "write", ("client:kv", 1, "A-data"))])
        scheduler.run(until=30, stop_when=lambda: node.done)
        assert node.done

        replica = replicas["replica:0"]
        state_a = replica.object_state("a")
        cert_a = state_a.pcert
        assert not cert_a.is_genesis

        # Replica-signed half: the certificate's signatures were produced
        # under scope "a"; validating them under scope "b" must fail.
        from repro.core.verification import Verifier

        scoped_b = ScopedSignatureScheme(config.scheme, "b")
        verifier_b = Verifier(scoped_b, config.quorums)
        assert not verifier_b.certificate_valid(cert_a)
        scoped_a = ScopedSignatureScheme(config.scheme, "a")
        assert Verifier(scoped_a, config.quorums).certificate_valid(cert_a)

        # Client-signed half: a WRITE carrying the stolen certificate and a
        # scope-"a" request signature is silently discarded by object "b".
        from repro.core.messages import WriteRequest
        from repro.core.statements import write_request_statement

        value = ("client:kv", 1, "A-data")
        statement = write_request_statement(value, cert_a)
        request = WriteRequest(
            value=value,
            prepare_cert=cert_a,
            signature=scoped_a.sign("client:kv", statement),
        )
        replay = ObjectMessage(obj="b", payload=message_to_wire(request))
        assert replica.handle("client:kv", replay) is None
        assert replica.object_state("b").data is None
        # And the same envelope is accepted back on its own object.
        assert replica.handle(
            "client:kv", ObjectMessage(obj="a", payload=message_to_wire(request))
        ) is not None


class TestPerObjectHistories:
    def test_each_object_history_linearizable(self, config):
        from repro.spec import check_register_linearizable

        scheduler, network, _ = build(config)
        c1 = MultiObjectClient("client:one", config)
        c2 = MultiObjectClient("client:two", config)
        n1 = MultiObjectClientNode(c1, network, scheduler, record_history=True)
        n2 = MultiObjectClientNode(c2, network, scheduler, record_history=True)
        n1.run_script(
            [
                ("a", "write", ("client:one", 1, None)),
                ("b", "write", ("client:one", 2, None)),
                ("a", "read", None),
            ]
        )
        n2.run_script(
            [
                ("a", "write", ("client:two", 3, None)),
                ("b", "read", None),
            ]
        )
        scheduler.run(until=60, stop_when=lambda: n1.done and n2.done)
        assert n1.done and n2.done
        # Merge both nodes' per-object histories and check each object.
        from repro.spec import History

        for obj in ("a", "b"):
            merged = History()
            events = []
            for node in (n1, n2):
                if obj in node.histories:
                    events.extend(node.histories[obj].events)
            events.sort(key=lambda e: e.time)
            merged.events = events
            report = check_register_linearizable(merged, obj=obj)
            assert report.ok, (obj, report.violation)
