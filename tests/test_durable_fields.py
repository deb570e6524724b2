"""The durable-field declaration is the only place a field is spelled.

A subclass of :class:`~repro.core.persistence.DurableReplicaState` that
appends scratch fields to its table — one per generic replay rule — gets
them logged, replayed by ``recover()``, included in ``snapshot_wire()``,
restored from a snapshot and reflected in the fingerprint, with no edit
anywhere else.  The remaining tests pin the declaration itself and the
one memory-fault entry point the simulator uses.
"""

from __future__ import annotations

import pytest

from repro.core.certificates import PrepareCertificate
from repro.core.persistence import (
    DURABLE_FIELDS,
    GROW_SET,
    LWW_MAP,
    MONOTONE_SCALAR,
    DurableField,
    DurableReplicaState,
)
from repro.core.timestamp import Timestamp
from repro.errors import SimulationError
from repro.sim.faults import FaultSchedule
from repro.storage import MemoryStore

TS1, TS2 = Timestamp(1, "client:a"), Timestamp(2, "client:b")
CERT1 = PrepareCertificate(ts=TS1, value_hash=b"h" * 32, signatures=())


def _pair_in(wire):
    return (Timestamp.from_wire(wire[0]), wire[1])


SCRATCH = (
    DurableField(
        "scratch_ts", MONOTONE_SCALAR, ("scratch-ts",),
        Timestamp.to_wire, Timestamp.from_wire, lambda: (0, ""),
    ),
    DurableField(
        "scratch_map", LWW_MAP, ("scratch-set", "scratch-del"),
        lambda pair: (pair[0].to_wire(), pair[1]), _pair_in, dict, 2,
    ),
    DurableField(
        "scratch_log", GROW_SET, ("scratch-log",),
        lambda ts: (ts.to_wire(),), lambda wire: Timestamp.from_wire(wire[0]),
        tuple, 1, fingerprinted=False, local=True,
    ),
)


class ScratchState(DurableReplicaState):
    FIELDS = DURABLE_FIELDS + SCRATCH


def _mutate(state: ScratchState) -> None:
    state.advance("scratch_ts", TS2)
    state.advance("scratch_ts", TS1)  # monotone: logs nothing
    state.open("scratch_map")["client:a"] = (TS1, b"h1")
    state.scratch_map["client:b"] = (TS2, b"h2")
    del state.scratch_map["client:b"]
    state.open("scratch_log").add(TS1)
    state.scratch_log.add(TS1)  # grow-only: logs nothing


def _scratch_view(state: ScratchState):
    return (
        state._scratch_ts,
        dict(state.scratch_map.items()),
        set(state.scratch_log),
    )


EXPECTED = (TS2, {"client:a": (TS1, b"h1")}, {TS1})


def test_scratch_fields_are_logged_with_their_declared_tags():
    state = ScratchState(MemoryStore(snapshot_interval=None))
    _mutate(state)
    _, records = state.store.load()
    assert records == [
        ("scratch-ts", TS2.to_wire()),
        ("scratch-set", "client:a", TS1.to_wire(), b"h1"),
        ("scratch-set", "client:b", TS2.to_wire(), b"h2"),
        ("scratch-del", "client:b"),
        ("scratch-log", TS1.to_wire()),
    ]
    assert _scratch_view(state) == EXPECTED


def test_scratch_fields_replay_after_recover():
    state = ScratchState(MemoryStore(snapshot_interval=None))
    _mutate(state)
    twin = ScratchState(state.store)
    twin.recover()
    assert _scratch_view(twin) == EXPECTED
    assert twin.fingerprint(include_signing_logs=True) == state.fingerprint(
        include_signing_logs=True
    )


def test_scratch_fields_are_snapshotted_and_restored():
    state = ScratchState(MemoryStore(snapshot_interval=None))
    _mutate(state)
    snapshot = state.snapshot_wire()
    assert snapshot["scratch_ts"] == TS2.to_wire()
    assert snapshot["scratch_map"] == {"client:a": (TS1.to_wire(), b"h1")}
    assert snapshot["scratch_log"] == ((TS1.to_wire(),),)
    state.store.write_snapshot(snapshot)
    assert state.store.load()[1] == []
    restored = ScratchState(state.store)
    restored.recover()
    assert _scratch_view(restored) == EXPECTED
    assert restored.snapshot_wire() == snapshot


def test_scratch_fields_are_fingerprinted_as_declared():
    fresh = ScratchState()
    state = ScratchState()
    state.advance("scratch_ts", TS1)
    assert state.fingerprint() != fresh.fingerprint()
    state = ScratchState()
    state.open("scratch_map")["client:a"] = (TS1, b"h1")
    assert state.fingerprint() != fresh.fingerprint()
    # scratch_log is declared like the signing logs: out of the
    # cross-variant fingerprint, in the exact one.
    state = ScratchState()
    state.open("scratch_log").add(TS1)
    assert state.fingerprint() == fresh.fingerprint()
    assert state.fingerprint(include_signing_logs=True) != fresh.fingerprint(
        include_signing_logs=True
    )


def test_scratch_fields_leave_the_base_format_alone():
    plain = DurableReplicaState()
    extended = ScratchState()
    wire = extended.snapshot_wire()
    for name in ("scratch_ts", "scratch_map", "scratch_log"):
        del wire[name]
    assert wire == plain.snapshot_wire()


def test_repair_keeps_local_scratch_fields_from_our_own_store():
    donor = ScratchState()
    donor.install(("v", 1), CERT1)
    donor.open("scratch_log").add(TS2)
    ours = ScratchState()
    ours.open("scratch_log").add(TS1)
    ours.adopt(donor.snapshot_wire())
    assert ours.data == ("v", 1)
    assert set(ours.scratch_log) == {TS1}


def test_every_name_and_tag_is_declared_once():
    names = [field.name for field in DURABLE_FIELDS]
    tags = [tag for field in DURABLE_FIELDS for tag in field.tags]
    assert len(names) == len(set(names)) == 8
    assert len(tags) == len(set(tags))
    assert sorted(DurableReplicaState().snapshot_wire()) == sorted(names)


def test_perturb_touches_memory_only():
    state = DurableReplicaState(MemoryStore(snapshot_interval=None))
    state.install(("v", 1), CERT1)
    state.advance("write_ts", TS1)
    state.open("optlist")
    before = state.store.load()
    exact = state.fingerprint(include_signing_logs=True)
    state.perturb("data", ("perturbed", "replica:0", 3))
    assert state.data == ("perturbed", "replica:0", 3)
    state.perturb("write_ts", None)
    assert state.write_ts == Timestamp(0, "")
    assert state.store.load() == before
    state.recover()
    assert state.fingerprint(include_signing_logs=True) == exact
    with pytest.raises(ValueError):
        state.perturb("nonsense", None)


def test_fault_schedule_accepts_exactly_the_declared_fields():
    schedule = FaultSchedule()
    for field in DURABLE_FIELDS:
        schedule.state_perturb(1.0, "replica:0", target=field.name)
    with pytest.raises(SimulationError):
        schedule.state_perturb(1.0, "replica:0", target="nonsense")
