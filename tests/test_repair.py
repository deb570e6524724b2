"""Quarantine-and-rebuild repair: wire codecs, the sans-I/O driver, the
quarantine gate, and the analytical cost closed form asserted exactly
against simulator counters."""

from __future__ import annotations

import pytest

from repro.analysis.costs import CostModel
from repro.core.config import make_system
from repro.core.messages import RepairReply, RepairRequest
from repro.core.repair import StateRepair, validate_repair_candidate
from repro.core.replica import BftBcReplica
from repro.crypto.hashing import hash_value
from repro.errors import ProtocolError
from repro.sim.nodes import ScriptStep
from repro.sim.runner import build_cluster

SCRIPT: list[ScriptStep] = [("write", ("v", i)) for i in range(4)] + [("read", None)]


def _group(f: int = 1):
    config = make_system(f, scheme="hmac", seed=b"repair-test")
    replicas = {
        node_id: BftBcReplica(node_id, config)
        for node_id in config.quorums.replica_ids
    }
    return config, replicas


def _reply_from(replica: BftBcReplica, nonce: bytes) -> RepairReply:
    return RepairReply(
        replica=replica.node_id,
        nonce=nonce,
        snapshot=replica.snapshot_wire(),
        fingerprint=replica.state_fingerprint(),
    )


# -- wire codecs ------------------------------------------------------------


def test_repair_request_wire_round_trip() -> None:
    message = RepairRequest(replica="replica:2", nonce=b"n" * 16)
    assert RepairRequest.from_wire(message.to_wire()) == message


def test_repair_request_rejects_malformed_wire() -> None:
    with pytest.raises(ProtocolError):
        RepairRequest.from_wire({"replica": "replica:0", "nonce": "not-bytes"})
    with pytest.raises(ProtocolError):
        RepairRequest.from_wire({"nonce": b"n" * 16})


def test_repair_reply_wire_round_trip() -> None:
    config, replicas = _group()
    replica = replicas["replica:0"]
    message = _reply_from(replica, b"x" * 16)
    assert RepairReply.from_wire(message.to_wire()) == message


def test_repair_reply_rejects_malformed_wire() -> None:
    config, replicas = _group()
    wire = _reply_from(replicas["replica:0"], b"x" * 16).to_wire()
    for field, bad in (
        ("replica", 7),
        ("nonce", "n"),
        ("snapshot", [1, 2]),
        ("fingerprint", "fp"),
    ):
        mangled = dict(wire)
        mangled[field] = bad
        with pytest.raises(ProtocolError):
            RepairReply.from_wire(mangled)


# -- the sans-I/O driver -----------------------------------------------------


def test_begin_addresses_every_peer_with_deterministic_nonce() -> None:
    config, replicas = _group()
    repair = StateRepair("replica:0", config, lambda snap: None)
    sends = repair.begin()
    assert sorted(s.dest for s in sends) == ["replica:1", "replica:2", "replica:3"]
    expected = hash_value(("state-repair", "replica:0", 1))[:16]
    assert repair.nonce == expected
    assert all(s.message.nonce == expected for s in sends)
    # A restarted round derives a fresh nonce from the round counter.
    assert repair.begin()[0].message.nonce == hash_value(
        ("state-repair", "replica:0", 2)
    )[:16]


def test_driver_completes_at_quorum_and_installs_winner() -> None:
    config, replicas = _group()
    installed: list[dict] = []
    repair = StateRepair("replica:0", config, installed.append)
    nonce_holder = repair.begin()[0].message.nonce
    peers = ["replica:1", "replica:2", "replica:3"]
    done = [
        repair.on_reply(peer, _reply_from(replicas[peer], nonce_holder))
        for peer in peers
    ]
    # quorum_size is 3 for f=1: the third reply completes the round.
    assert done == [False, False, True]
    assert installed and not repair.active
    assert repair.rejects == 0


def test_driver_ignores_stale_duplicate_and_foreign_replies() -> None:
    config, replicas = _group()
    repair = StateRepair("replica:0", config, lambda snap: None)
    nonce = repair.begin()[0].message.nonce
    good = _reply_from(replicas["replica:1"], nonce)
    assert not repair.on_reply("replica:1", good)
    # Duplicate sender, wrong nonce, and a non-peer all bounce without
    # advancing the reply count.
    assert not repair.on_reply("replica:1", good)
    stale = _reply_from(replicas["replica:2"], b"z" * 16)
    assert not repair.on_reply("replica:2", stale)
    outsider = _reply_from(replicas["replica:2"], nonce)
    assert not repair.on_reply("client:mallory", outsider)
    assert len(repair.round.replies) == 1


def test_driver_stays_active_until_a_candidate_validates() -> None:
    config, replicas = _group()
    installed: list[dict] = []
    repair = StateRepair("replica:0", config, installed.append)
    nonce = repair.begin()[0].message.nonce
    # A full quorum of tampered replies (fingerprint lies about the
    # snapshot) must not complete the repair.
    for peer in ["replica:1", "replica:2"]:
        reply = _reply_from(replicas[peer], nonce)
        forged = RepairReply(
            replica=reply.replica,
            nonce=nonce,
            snapshot=reply.snapshot,
            fingerprint=b"\x00" * 32,
        )
        assert not repair.on_reply(peer, forged)
    assert not repair.on_reply(
        "replica:3",
        RepairReply(
            replica="replica:3",
            nonce=nonce,
            snapshot={"garbage": True},
            fingerprint=b"\x00" * 32,
        ),
    )
    assert repair.active and not installed
    # Retransmit targets nobody (all peers answered); a fresh round can
    # still heal the replica.
    assert repair.retransmit() == []
    nonce2 = repair.begin()[0].message.nonce
    assert nonce2 != nonce
    for index, peer in enumerate(["replica:1", "replica:2", "replica:3"]):
        done = repair.on_reply(peer, _reply_from(replicas[peer], nonce2))
        assert done == (index == 2)
    assert installed and not repair.active


def test_validate_repair_candidate_rejects_mismatch_and_garbage() -> None:
    config, replicas = _group()
    replica = replicas["replica:1"]
    snapshot = replica.snapshot_wire()
    good = validate_repair_candidate(
        snapshot, replica.state_fingerprint(), config.scheme, config.quorums
    )
    assert good is not None
    assert (
        validate_repair_candidate(
            snapshot, b"\x00" * 32, config.scheme, config.quorums
        )
        is None
    )
    assert (
        validate_repair_candidate(
            {"not": "a snapshot"}, b"\x00" * 32, config.scheme, config.quorums
        )
        is None
    )


def test_cert_check_hook_overrides_third_party_validation() -> None:
    """A hosting replica's own acceptance rule substitutes for is_valid.

    The fast-path variant needs this: proof-evidence certificates are not
    third-party verifiable, so repair defers to the replica's hook.  Here
    we pin the plumbing: the hook sees the scratch-recovered pcert and its
    verdict is authoritative in both directions.
    """
    config, replicas = _group()
    cluster = build_cluster(f=1, seed=3)
    cluster.run_scripts({"alice": SCRIPT}, max_time=60)
    donor = cluster.replicas["replica:1"]
    snapshot = donor.snapshot_wire()
    fingerprint = donor.state_fingerprint()
    assert not donor.pcert.is_genesis
    seen: list[object] = []

    def accept(pcert) -> bool:
        seen.append(pcert)
        return True

    checked = validate_repair_candidate(
        snapshot,
        fingerprint,
        cluster.config.scheme,
        cluster.config.quorums,
        cert_check=accept,
    )
    assert checked is not None and seen
    rejected = validate_repair_candidate(
        snapshot,
        fingerprint,
        cluster.config.scheme,
        cluster.config.quorums,
        cert_check=lambda pcert: False,
    )
    assert rejected is None


# -- the quarantine gate ----------------------------------------------------


def test_quarantined_replica_discards_protocol_traffic() -> None:
    config, replicas = _group()
    replica = replicas["replica:0"]
    from repro.core.messages import ReadTsRequest

    replica.enter_quarantine("test")
    assert replica.quarantined
    assert replica.handle("client:alice", ReadTsRequest(nonce=b"q" * 16)) is None
    assert replica.stats.discards["quarantined"] == 1
    # Re-detecting the same damage does not double-count the episode.
    replica.enter_quarantine("test")
    assert replica.stats.quarantines == 1
    # A quarantined peer refuses to serve repair pulls (known-bad state
    # must not propagate) ...
    request = RepairRequest(replica="replica:1", nonce=b"r" * 16)
    assert replica.handle("replica:1", request) is None
    assert replica.stats.discards["quarantined"] == 2
    # ... but a healthy peer answers with its snapshot.
    healthy = replicas["replica:1"]
    reply = healthy.handle("replica:0", request)
    assert isinstance(reply, RepairReply)
    assert reply.nonce == request.nonce


def test_begin_repair_is_a_noop_on_healthy_replicas() -> None:
    config, replicas = _group()
    replica = replicas["replica:0"]
    assert replica.begin_repair() == []
    assert replica.repair_retransmit() == []


# -- the cost closed form, asserted against sim counters --------------------


@pytest.mark.parametrize("f", [1, 2])
def test_repair_message_cost_matches_closed_form(f: int) -> None:
    """One repair on a reliable network costs exactly 2(n-1) messages.

    Every REPAIR-REQ a peer handles and every REPAIR-REPLY the victim
    handles is counted by the replicas themselves; the analytical model's
    closed form must match those counters with no slack.
    """
    cluster = build_cluster(f=f, seed=7)
    cluster.run_scripts({"alice": SCRIPT}, max_time=120)
    victim_id = cluster.config.quorums.replica_ids[0]
    victim_node = cluster.replica_nodes[victim_id]
    victim = victim_node.replica
    before = victim.state_fingerprint()
    victim.enter_quarantine("test")
    assert not victim_node.audit_and_repair()
    cluster.settle(2.0)
    assert not victim.quarantined
    assert victim.stats.repairs == 1
    assert victim.repair.rounds == 1  # no retransmissions were needed
    assert victim.state_fingerprint() == before
    requests_served = sum(
        replica.stats.handled["REPAIR-REQ"]
        for node_id, replica in cluster.replicas.items()
        if node_id != victim_id
    )
    replies_received = victim.stats.handled["REPAIR-REPLY"]
    model = CostModel(quorums=cluster.config.quorums)
    assert requests_served + replies_received == model.repair_messages()
    assert model.repair_messages() == 2 * (cluster.config.quorums.n - 1)
    # A repair is a bootstrap minus the slot the joiner would fill.
    assert model.state_transfer_messages() - model.repair_messages() == 2
    assert model.repair_verifications() == cluster.config.quorums.quorum_size
