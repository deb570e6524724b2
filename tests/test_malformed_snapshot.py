"""A Byzantine peer's malformed snapshot never crashes repair.

Repair trusts nothing in a ``REPAIR-REPLY``: the candidate snapshot is
restored into a scratch state before anything else looks at it.  Every
declared durable field is mangled here in every way a hostile peer can
mangle a wire value — the key dropped, the value retyped, one entry given
the wrong arity — and the mangled reply is sent to a quarantined replica
together with two good ones.  The replica must heal from the good replies,
count the bad one as a reject, and never let an exception out of
``handle``.  The shard bootstrap revalidates candidates through the same
:func:`~repro.core.repair.validate_repair_candidate`, checked directly at
the end.
"""

from __future__ import annotations

import pytest

from repro.core.messages import RepairReply
from repro.core.persistence import DurableReplicaState
from repro.core.repair import validate_repair_candidate
from repro.sim import build_cluster
from repro.sim.workload import write_script

#: Every durable field, by its snapshot key.
FIELDS = sorted(DurableReplicaState().snapshot_wire())

#: Per-client maps that are created on first use snapshot as None before
#: then, so None is a legal value for them and not a malformed one.
LAZY = {"optlist", "fastc"}

TS = (3, "client:forged")

#: An entry or member one element longer than any declared entry shape.
LONG_ENTRY = (TS, b"h" * 32, b"c" * 32, b"extra")


def _wrong_arity(name: str, wire):
    if name in LAZY or name == "plist":
        return {**(wire or {}), "client:forged": LONG_ENTRY}
    if name in ("swr", "spr"):
        return tuple(wire) + (LONG_ENTRY,)
    return tuple(wire) + ("extra",)  # write_ts, pcert


#: A field's value replaced by another type.
RETYPED = {"int": 7, "bytes": b"junk", "tuple": ("junk",), "none": None}

#: Every (field, mangling) pair that makes a snapshot malformed: None is
#: legal for a lazy map, and the opaque object value has no entry arity.
CASES = [
    (name, case)
    for name in FIELDS
    for case in ("missing", *RETYPED, "arity")
    if not (case == "none" and name in LAZY)
    and not (case == "arity" and name == "data")
]


def _mangle(snapshot: dict, name: str, case: str) -> dict:
    """``snapshot`` with field ``name`` broken by ``case``."""
    bad = dict(snapshot)
    if case == "missing":
        del bad[name]
    elif case == "arity":
        bad[name] = _wrong_arity(name, snapshot[name])
    else:
        bad[name] = RETYPED[case]
    return bad


@pytest.fixture(scope="module")
def donors():
    """Replicas that have run fast-path writes: every field is populated."""
    cluster = build_cluster(f=1, variant="fastpath", seed=11)
    cluster.run_scripts(
        {name: write_script(name, 3) for name in ("alice", "bob")}, max_time=60
    )
    cluster.settle(1.0)
    return cluster


@pytest.mark.parametrize("name, case", CASES)
def test_quarantined_replica_heals_past_a_malformed_reply(donors, name, case):
    replicas = donors.replicas
    victim_id, bad_id, *good_ids = sorted(replicas)
    source = replicas[bad_id]
    bad_snapshot = _mangle(source.snapshot_wire(), name, case)
    victim = type(replicas[victim_id])(victim_id, donors.config)
    victim.enter_quarantine("test")
    nonce = victim.begin_repair()[0].message.nonce
    replies = [
        (
            bad_id,
            RepairReply(
                replica=bad_id,
                nonce=nonce,
                snapshot=bad_snapshot,
                fingerprint=source.state_fingerprint(),
            ),
        )
    ] + [
        (
            peer,
            RepairReply(
                replica=peer,
                nonce=nonce,
                snapshot=replicas[peer].snapshot_wire(),
                fingerprint=replicas[peer].state_fingerprint(),
            ),
        )
        for peer in good_ids
    ]
    for sender, reply in replies:
        assert victim.handle(sender, reply) is None
    assert not victim.quarantined
    assert victim.stats.repairs == 1
    assert victim.repair.rejects == 1
    assert victim.state_fingerprint() == replicas[good_ids[0]].state_fingerprint()


@pytest.mark.parametrize("name, case", CASES)
def test_candidate_validation_returns_none_for_a_malformed_snapshot(
    donors, name, case
):
    source = donors.replicas["replica:1"]
    bad_snapshot = _mangle(source.snapshot_wire(), name, case)
    assert (
        validate_repair_candidate(
            bad_snapshot,
            source.state_fingerprint(),
            donors.config.scheme,
            donors.config.quorums,
            cert_check=lambda cert: True,
        )
        is None
    )
