"""A reply is a vote only if the replica that sent it signed it.

The paper's quorum arguments (Lemma 1, Theorems 1 and 2) count distinct
replicas' signatures, so in every signed reply phase of every variant and
both baselines a Byzantine replica must gain nothing by relaying another
replica's signed reply, and a signature over other bytes must count for
nothing.  The same holds for the signatures a reply carries inside it: the
optimized READ-TS-PREP reply's ``prep_sig``, the §7 timestamp vouches and
the fast path's ``pvouch``.

Each case drives one operation, on sans-I/O replicas, to the round under
test; then delivers (1) replica:0's genuine reply as if an impostor sent it,
(2) replica:0's reply re-signed over other bytes, and (3) the genuine reply,
which must vote so the first two prove something.

The replica-side rounds — quarantine repair, a shard joiner's state
transfer and both phases of a reconfiguration — count through the same
:class:`~repro.core.phases.QuorumRound` with their own voter sets.  The
last four tests check that a non-voter's reply (the repairing replica
itself, the member being removed, a stranger) never counts and that a
voter's second reply never replaces its first.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional
from unittest.mock import ANY

import pytest

from repro.baselines.bqs import BqsClient, BqsReplica
from repro.baselines.messages import (
    BqsReadRequest,
    BqsReadTsRequest,
    BqsWriteRequest,
    PhxEchoRequest,
    PhxReadRequest,
    PhxReadTsRequest,
    PhxWriteRequest,
)
from repro.baselines.phalanx import PhalanxClient, PhalanxReplica
from repro.core.config import Variant, make_system
from repro.core.messages import (
    FastPrepRequest,
    PrepareRequest,
    ReadRequest,
    ReadTsPrepRequest,
    ReadTsRequest,
    RepairReply,
    WriteRequest,
)
from repro.core.quorum import QuorumSystem
from repro.core.replica import BftBcReplica
from repro.core.repair import StateRepair
from repro.shard import (
    ConfigSignReply,
    InstallEpochAck,
    Reconfigurator,
    ShardConfig,
    ShardDirectory,
    ShardReplica,
    StateTransferReply,
)

CLIENT = "client:alice"
HONEST = "replica:0"


class Case(NamedTuple):
    system: str  # a variant name, "bqs" or "phalanx"
    op: str  # "write" or "read"
    stop: type  # the request kind of the round under test
    field: str = "signature"  # which signature in the reply is tampered
    impostor: str = "replica:1"
    lagging: bool = False  # replica:3 missed the first write
    fallback: bool = False  # FAST-PREP reaches only replicas 2 and 3


CASES = {
    # base: READ-TS, PREPARE, WRITE, READ and the read write-back
    "base-read-ts": Case("base", "write", ReadTsRequest),
    "base-prepare": Case("base", "write", PrepareRequest),
    "base-write": Case("base", "write", WriteRequest),
    "base-read": Case("base", "read", ReadRequest),
    "base-read-write-back": Case(
        "base", "read", WriteRequest, impostor="replica:3", lagging=True
    ),
    # optimized: the merged phase's envelope and its inner PREPARE-REPLY
    "optimized-read-ts-prep": Case("optimized", "write", ReadTsPrepRequest),
    "optimized-prep-sig": Case(
        "optimized", "write", ReadTsPrepRequest, field="prep_sig"
    ),
    "optimized-write": Case("optimized", "write", WriteRequest),
    # strong: READ-TS and its vouch, the value fetch and its vouch, the
    # write-back that completes the justify certificate
    "strong-read-ts": Case("strong", "write", ReadTsRequest),
    "strong-read-ts-vouch": Case("strong", "write", ReadTsRequest, field="ts_vouch"),
    "strong-prepare": Case("strong", "write", PrepareRequest),
    "strong-write": Case("strong", "write", WriteRequest),
    "strong-fetch": Case("strong", "write", ReadRequest, lagging=True),
    "strong-fetch-vouch": Case(
        "strong", "write", ReadRequest, field="ts_vouch", lagging=True
    ),
    "strong-write-back": Case(
        "strong", "write", WriteRequest, impostor="replica:3", lagging=True
    ),
    # fastpath: the signed fallback and the read, with their pvouches
    "fastpath-fallback-read-ts": Case(
        "fastpath", "write", ReadTsRequest, fallback=True
    ),
    "fastpath-fallback-pvouch": Case(
        "fastpath", "write", ReadTsRequest, field="pvouch", fallback=True
    ),
    "fastpath-fallback-prepare": Case(
        "fastpath", "write", PrepareRequest, fallback=True
    ),
    "fastpath-fallback-write": Case(
        "fastpath", "write", WriteRequest, fallback=True
    ),
    "fastpath-read": Case("fastpath", "read", ReadRequest),
    "fastpath-read-pvouch": Case("fastpath", "read", ReadRequest, field="pvouch"),
    # BQS: READ-TS, WRITE, READ and the Phalanx-style read write-back
    "bqs-read-ts": Case("bqs", "write", BqsReadTsRequest),
    "bqs-write": Case("bqs", "write", BqsWriteRequest),
    "bqs-read": Case("bqs", "read", BqsReadRequest),
    "bqs-read-write-back": Case(
        "bqs", "read", BqsWriteRequest, impostor="replica:3", lagging=True
    ),
    # Phalanx: READ-TS, ECHO, WRITE and the masking read
    "phalanx-read-ts": Case("phalanx", "write", PhxReadTsRequest),
    "phalanx-echo": Case("phalanx", "write", PhxEchoRequest),
    "phalanx-write": Case("phalanx", "write", PhxWriteRequest),
    "phalanx-read": Case("phalanx", "read", PhxReadRequest),
}


def _deploy(system: str):
    """A config, the replica class and a client, for one system."""
    if system == "bqs":
        config = make_system(1, seed=b"vote-guard")
        return config, BqsReplica, BqsClient(CLIENT, config)
    if system == "phalanx":
        config = make_system(1, seed=b"vote-guard", quorums=QuorumSystem.phalanx(1))
        return config, PhalanxReplica, PhalanxClient(CLIENT, config)
    variant = Variant.coerce(system)
    config = make_system(1, seed=b"vote-guard", strong=variant.strong)
    return config, variant.replica_cls, variant.client_cls(CLIENT, config)


class Stepper:
    """Routes a client's sends to sans-I/O replicas and the replies back,
    stopping when the client opens a round that asks ``stop``."""

    def __init__(self, client, replicas) -> None:
        self.client = client
        self.replicas = replicas

    def run(
        self,
        sends,
        stop: Optional[type] = None,
        skip: Callable[[object], bool] = lambda send: False,
    ):
        queue = list(sends)
        while queue:
            send = queue.pop(0)
            if stop is not None and isinstance(send.message, stop):
                return self.client.op._collector
            if skip(send):
                continue
            reply = self.replicas[send.dest].handle(self.client.node_id, send.message)
            if reply is not None:
                queue.extend(self.client.deliver(send.dest, reply))
        return None


def _round_under_test(case: Case):
    config, replica_cls, client = _deploy(case.system)
    replicas = {rid: replica_cls(rid, config) for rid in config.quorums.replica_ids}
    step = Stepper(client, replicas)
    # A completed first write: the replicas then hold a certificate (on the
    # fast path a proof-evidence one, which earns pvouches).  In a lagging
    # case replica:3 misses it, and replica:0 later misses the first round,
    # so the quorum that answers mixes old and new.
    missed = "replica:3" if case.lagging else None
    step.run(client.begin_write(("v", 0)), skip=lambda s: s.dest == missed)
    assert not client.busy
    if case.lagging:
        skip = lambda s: s.dest == HONEST  # noqa: E731
    elif case.fallback:
        # FAST-PREP reaches two replicas: no quorum, so the client falls
        # back to the signed protocol after a few retransmission ticks.
        skip = lambda s: (  # noqa: E731
            isinstance(s.message, FastPrepRequest) and s.dest in (HONEST, "replica:1")
        )
    else:
        skip = lambda s: False  # noqa: E731
    sends = client.begin_write(("v", 1)) if case.op == "write" else client.begin_read()
    round_ = step.run(sends, case.stop, skip)
    for _tick in range(10):
        if round_ is not None:
            break
        round_ = step.run(client.retransmit(), case.stop, skip)
    assert round_ is not None and isinstance(round_.request, case.stop)
    return config, replicas, client, round_


def _voted(client, round_, sender: str, case: Case) -> bool:
    """Did ``sender``'s reply earn what ``case.field`` is checked for?"""
    if case.field != "pvouch":
        return sender in round_.replies
    # A pvouch is optional: the reply still votes, and only a pvouch its
    # sender signed is filed under the reply's (ts, h) group.
    reply = round_.replies.get(sender)
    if reply is None:
        return False
    filed = client.op._pvouches.get((reply.cert.ts, reply.cert.value_hash), {})
    return sender in filed


@pytest.mark.parametrize("name", sorted(CASES))
def test_only_the_senders_own_signature_votes(name):
    case = CASES[name]
    config, replicas, client, round_ = _round_under_test(case)
    request = round_.request
    genuine = replicas[HONEST].handle(CLIENT, request)
    theirs = replicas[case.impostor].handle(CLIENT, request)
    assert getattr(genuine, case.field) is not None
    assert HONEST not in round_.replies and case.impostor not in round_.replies

    # 1. replica:0's signature delivered as the impostor's earns no vote.
    if case.field == "signature":
        relayed = genuine
    else:
        relayed = dataclasses.replace(
            theirs, **{case.field: getattr(genuine, case.field)}
        )
    client.deliver(case.impostor, relayed)
    assert not _voted(client, round_, case.impostor, case)

    # 2. replica:0's own signature over other bytes earns no vote.
    other = config.scheme.sign(HONEST, b"other bytes")
    client.deliver(HONEST, dataclasses.replace(genuine, **{case.field: other}))
    assert not _voted(client, round_, HONEST, case)

    # 3. The genuine reply does vote, so the two rejections above are the
    # sender-bound check's doing.
    if case.field == "pvouch":
        round_.replies.pop(HONEST, None)  # step 2's reply voted without it
    client.deliver(HONEST, genuine)
    assert _voted(client, round_, HONEST, case)


# -- replica-side rounds ------------------------------------------------------


def test_repair_counts_each_peer_once_and_never_itself():
    config = make_system(1, scheme="hmac", seed=b"vote-guard-repair")
    replicas = {
        node: BftBcReplica(node, config) for node in config.quorums.replica_ids
    }
    installed: list = []
    repair = StateRepair("replica:0", config, installed.append)
    nonce = repair.begin()[0].message.nonce

    def reply(node: str, fingerprint: Optional[bytes] = None) -> RepairReply:
        return RepairReply(
            replica=node,
            nonce=nonce,
            snapshot=replicas[node].snapshot_wire(),
            fingerprint=fingerprint or replicas[node].state_fingerprint(),
        )

    first = reply("replica:1")
    assert not repair.on_reply("replica:1", first)
    assert not repair.on_reply("replica:1", reply("replica:1", b"\0" * 32))
    assert not repair.on_reply("replica:0", reply("replica:0"))  # itself
    assert not repair.on_reply("client:mallory", reply("replica:3"))
    assert not repair.on_reply("replica:2", reply("replica:2"))
    assert repair.round.replies == {"replica:1": first, "replica:2": ANY}
    assert [s.dest for s in repair.retransmit()] == ["replica:3"]
    assert not installed
    assert repair.on_reply("replica:3", reply("replica:3"))
    assert installed


SHARD = "shard:0"
MEMBERS = tuple(f"replica:g{i}" for i in range(4))


def _shard_world():
    template = make_system(f=1, seed=b"vote-guard-shard")
    for node in MEMBERS + ("replica:gX", "replica:gY"):
        template.registry.register(node)
    genesis = ShardConfig(shard=SHARD, epoch=0, members=MEMBERS, f=1)
    return template, genesis


def _shard_replica(template, genesis, node, **kwargs) -> ShardReplica:
    directory = ShardDirectory({SHARD: genesis}, template.scheme)
    return ShardReplica(node, SHARD, directory, template, **kwargs)


def test_bootstrap_counts_each_old_member_once_and_never_itself():
    template, genesis = _shard_world()
    joiner = _shard_replica(
        template, genesis, "replica:gX", bootstrap_from=genesis
    )
    nonce = joiner.begin_bootstrap()[0].message.nonce

    def transfer(objects: dict) -> StateTransferReply:
        return StateTransferReply(
            shard=SHARD, nonce=nonce, epoch=0, objects=objects
        )

    first = transfer({})
    joiner.handle(MEMBERS[0], first)
    joiner.handle(MEMBERS[0], transfer({"x": {}}))
    joiner.handle("replica:gX", transfer({}))  # itself
    joiner.handle("replica:gY", transfer({}))  # a stranger
    joiner.handle(MEMBERS[1], transfer({}))
    assert not joiner.ready
    assert joiner._boot_round.replies == {MEMBERS[0]: {}, MEMBERS[1]: {}}
    assert [s.dest for s in joiner.bootstrap_retransmit()] == list(MEMBERS[2:])
    joiner.handle(MEMBERS[2], transfer({}))
    assert joiner.ready


def _signing(template, genesis):
    replicas = {m: _shard_replica(template, genesis, m) for m in MEMBERS}
    directory = ShardDirectory({SHARD: genesis}, template.scheme)
    rec = Reconfigurator("admin:1", SHARD, directory, template)
    sends = rec.begin_replace(MEMBERS[3], "replica:gX")
    request = sends[0].message
    signed = {m: replicas[m].handle("admin:1", request) for m in MEMBERS}
    return rec, request, signed


def test_sign_round_ignores_the_removed_member_strangers_and_repeats():
    template, genesis = _shard_world()
    rec, request, signed = _signing(template, genesis)
    proposal = ShardConfig.from_wire(request.config)
    # A stranger's own, valid signature over the proposal.
    stranger = ConfigSignReply(
        shard=SHARD,
        epoch=1,
        signature=template.scheme.sign(
            "replica:gY", proposal.statement_bytes()
        ).to_wire(),
    )
    rec.deliver(MEMBERS[0], signed[MEMBERS[0]])
    rec.deliver(MEMBERS[0], signed[MEMBERS[0]])
    rec.deliver(MEMBERS[3], signed[MEMBERS[3]])  # the member being removed
    rec.deliver("replica:gY", stranger)
    rec.deliver(MEMBERS[1], signed[MEMBERS[1]])
    assert rec.phase == "signing"
    assert set(rec.round.replies) == {MEMBERS[0], MEMBERS[1]}
    assert [s.dest for s in rec.retransmit()] == [MEMBERS[2]]
    rec.deliver(MEMBERS[2], signed[MEMBERS[2]])
    assert rec.phase == "installing"
    assert [sig.signer for sig in rec._entry.signatures] == list(MEMBERS[:3])


def test_install_round_counts_new_members_once_and_no_stranger():
    template, genesis = _shard_world()
    rec, _, signed = _signing(template, genesis)
    for member in MEMBERS[:3]:
        rec.deliver(member, signed[member])
    assert rec.phase == "installing"
    ack = InstallEpochAck(shard=SHARD, epoch=1)
    rec.deliver(MEMBERS[0], ack)
    rec.deliver(MEMBERS[0], ack)
    rec.deliver("replica:gY", ack)  # a stranger
    rec.deliver(MEMBERS[3], ack)  # an old member: stops its retransmits only
    rec.deliver("replica:gX", ack)
    assert not rec.done
    assert rec.round.responders() == {MEMBERS[0], MEMBERS[3], "replica:gX"}
    assert [s.dest for s in rec.retransmit()] == [MEMBERS[1], MEMBERS[2]]
    rec.deliver(MEMBERS[1], ack)
    assert rec.done
