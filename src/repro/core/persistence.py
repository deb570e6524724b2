"""Durable replica state: the bridge between replicas and their store.

:class:`DurableReplicaState` owns every piece of Figure-2 state a
:class:`~repro.core.replica.BftBcReplica` holds — ``data``, ``pcert``,
``plist`` (and the §6 ``optlist``), ``write_ts`` — plus the signing logs the
executable Lemma 1 invariants read.  All mutation goes through it, and every
mutation is appended to the backing
:class:`~repro.storage.base.ReplicaStore` *before* the change becomes
visible, so a replica can be rebuilt after a crash by replaying
snapshot + log (:meth:`DurableReplicaState.recover`).

The store traffics only in wire values (canonically encodable tuples and
dicts); this module owns the translation:

==============  =====================================  =====================
record tag      payload                                meaning
==============  =====================================  =====================
``plist-set``   ``(client, ts_wire, value_hash)``      plist entry written
``plist-del``   ``(client,)``                          plist entry GC'd
``optlist-set`` ``(client, ts_wire, value_hash)``      §6 optlist entry
``optlist-del`` ``(client,)``                          §6 optlist GC
``fastc-set``   ``(client, ts_wire, h, commitment)``   fast-path commitment
``fastc-del``   ``(client,)``                          fast commitment GC
``install``     ``(value, pcert_wire)``                phase-3 install
``write-ts``    ``(ts_wire,)``                         write_ts advanced
``swr``         ``(ts_wire,)``                         WRITE-REPLY signed
``spr``         ``(ts_wire, value_hash, client)``      PREPARE-REPLY signed
==============  =====================================  =====================

Replay is idempotent: ``plist``/``optlist`` records are last-writer-wins,
``install`` and ``write-ts`` carry monotonicity guards, and the signing logs
are grow-only sets — so a WAL suffix that overlaps an already-applied
snapshot (a crash between snapshot write and log truncation, or a torn
final record dropped by the store) re-applies to the same state.

Per-client state budgets
------------------------

With six-figure client populations, the per-client maps are the replica's
dominant memory cost.  A :class:`ClientStateBudget` caps how many entries
each map keeps *hot* (resident in the in-memory mirror); entries beyond the
budget are **spilled** — dropped from the mirror while their latest logged
record remains the authoritative copy.  Spilling writes nothing: the WAL
discipline already guarantees a durable ``<tag>-set`` record (or snapshot
row) for every visible entry.  A later access **rehydrates** the entry by
replaying snapshot + log for its tag, which is exactly the recovery path —
so a budgeted replica's observable behaviour, and its state fingerprint,
match the unbounded replica's bit for bit.

Stale entries (``ts <= write_ts``, the §3.3.1 GC criterion) are collected
eagerly while hot and *lazily* once spilled: a rehydration or snapshot that
finds a spilled entry at or below the cutoff treats it as absent.  This is
equivalent to eager GC because entries are only ever added above the
then-current ``write_ts`` and the cutoff only advances.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.core.certificates import (
    GENESIS_VALUE,
    PrepareCertificate,
    genesis_prepare_certificate,
)
from repro.core.timestamp import ZERO_TS, Timestamp
from repro.crypto.hashing import hash_value
from repro.errors import StorageError
from repro.storage import MemoryStore, ReplicaStore

__all__ = [
    "PlistEntry",
    "FastCommitment",
    "ClientStateBudget",
    "ClientStateStats",
    "ClientStateTable",
    "DurableReplicaState",
]

#: ``() -> cutoff``: entries at or below the cutoff are garbage (§3.3.1).
StaleCutoff = Callable[[], Optional[Timestamp]]


@dataclass(frozen=True)
class PlistEntry:
    """One proposed write: the ``(t, h)`` of a client's prepare."""

    ts: Timestamp
    value_hash: bytes


@dataclass(frozen=True)
class FastCommitment:
    """One fast-path prepare: the ``(t, h, C)`` a replica MAC-acked.

    Recorded durably so a recovered replica still refuses to ack the same
    predicted timestamp for a *different* ``(h, C)`` — the fast-path
    analogue of the prepare-list conflict check.
    """

    ts: Timestamp
    value_hash: bytes
    commitment: bytes


@dataclass(frozen=True)
class ClientStateBudget:
    """Resident-entry cap for each per-client map (plist/optlist/fastc).

    ``hot_entries`` bounds how many clients' entries stay in memory per map;
    the rest spill to the WAL-backed store and rehydrate on demand.
    """

    hot_entries: int = 1024

    def __post_init__(self) -> None:
        if self.hot_entries < 1:
            raise StorageError(
                f"hot_entries must be >= 1, got {self.hot_entries}"
            )


@dataclass
class ClientStateStats:
    """Spill/rehydrate counters for one replica's per-client state (E21)."""

    spills: int = 0
    rehydrations: int = 0
    stale_drops: int = 0

    def reset(self) -> None:
        self.spills = 0
        self.rehydrations = 0
        self.stale_drops = 0


def _load_tag_wire(store: ReplicaStore, tag: str) -> dict[str, tuple]:
    """Authoritative ``client -> record tail`` view of one map's tag.

    Replays snapshot + log exactly like :meth:`DurableReplicaState.recover`,
    restricted to ``tag``.  Read-only: safe to call mid-compaction (the
    store's ``load`` is idempotent and truncation happens only after the
    snapshot source has returned).
    """
    snapshot, records = store.load()
    merged: dict[str, tuple] = {}
    if isinstance(snapshot, dict):
        section = snapshot.get(tag)
        if section:
            for client, wire in section.items():
                merged[client] = tuple(wire)
    set_tag = tag + "-set"
    del_tag = tag + "-del"
    for record in records:
        if not isinstance(record, tuple) or not record:
            continue
        if record[0] == set_tag:
            merged[record[1]] = tuple(record[2:])
        elif record[0] == del_tag:
            merged.pop(record[1], None)
    return merged


class LoggedMap:
    """A ``client -> PlistEntry`` mapping whose mutations hit the WAL.

    Reads are plain dict reads; ``[]=`` and ``del`` append a
    ``<tag>-set`` / ``<tag>-del`` record before updating the mirror, which
    is what makes prepare-list entries unforgettable across crashes.

    With a ``budget``, the mirror holds at most that many hot entries in LRU
    order; colder entries spill (see module docs) and rehydrate from the
    store on access.  Without one, behaviour is exactly the classic
    all-resident map.
    """

    __slots__ = ("_store", "_tag", "_entries", "_budget", "_spilled",
                 "_stale_cutoff", "stats")

    def __init__(
        self,
        store: ReplicaStore,
        tag: str,
        *,
        budget: Optional[int] = None,
        stale_cutoff: Optional[StaleCutoff] = None,
        stats: Optional[ClientStateStats] = None,
    ) -> None:
        self._store = store
        self._tag = tag
        self._entries: "OrderedDict[str, PlistEntry]" = OrderedDict()
        self._budget = budget
        self._spilled: set[str] = set()
        self._stale_cutoff = stale_cutoff
        self.stats = stats

    # -- wire translation (overridden by the fast-path twin) ----------------

    def _decode(self, wire: tuple) -> PlistEntry:
        ts_wire, value_hash = wire
        return PlistEntry(Timestamp.from_wire(ts_wire), value_hash)

    def _encode(self, entry: PlistEntry) -> tuple:
        return (entry.ts.to_wire(), entry.value_hash)

    # -- reads --------------------------------------------------------------

    def get(self, client: str):
        entry = self._entries.get(client)
        if entry is not None:
            if self._budget is not None:
                self._entries.move_to_end(client)
            return entry
        if client in self._spilled:
            return self._rehydrate(client)
        return None

    def __getitem__(self, client: str):
        entry = self.get(client)
        if entry is None:
            raise KeyError(client)
        return entry

    def __contains__(self, client: str) -> bool:
        if client in self._entries:
            return True
        if client in self._spilled:
            return self.get(client) is not None
        return False

    def __len__(self) -> int:
        if not self._spilled:
            return len(self._entries)
        return len(self._merged())

    def __iter__(self) -> Iterator[str]:
        if not self._spilled:
            return iter(self._entries)
        return iter(self._merged())

    def items(self):
        if not self._spilled:
            return self._entries.items()
        return self._merged().items()

    def values(self):
        if not self._spilled:
            return self._entries.values()
        return self._merged().values()

    @property
    def resident(self) -> int:
        """Hot entries currently held in memory."""
        return len(self._entries)

    @property
    def spilled(self) -> int:
        """Entries currently spilled to the store."""
        return len(self._spilled)

    # -- writes (always logged first) ---------------------------------------

    def __setitem__(self, client: str, entry) -> None:
        self._store.append((self._tag + "-set", client) + self._encode(entry))
        self._spilled.discard(client)
        self._entries[client] = entry
        if self._budget is not None:
            self._entries.move_to_end(client)
            self._enforce_budget()
        self._store.maybe_compact()

    def __delitem__(self, client: str) -> None:
        if client in self._entries:
            del self._entries[client]  # KeyError never reaches the log
        elif client in self._spilled:
            self._spilled.discard(client)
        else:
            raise KeyError(client)
        self._store.append((self._tag + "-del", client))
        self._store.maybe_compact()

    def gc_stale(self, cutoff: Timestamp) -> list[str]:
        """Eagerly collect hot entries at or below ``cutoff`` (§3.3.1).

        Only the hot mirror is scanned — spilled entries are collected
        lazily on rehydration/snapshot against the same cutoff, which never
        regresses, so the two disciplines remove exactly the same entries.
        """
        stale = [c for c, e in self._entries.items() if e.ts <= cutoff]
        for client in stale:
            del self[client]
        return stale

    # -- spill machinery ----------------------------------------------------

    def _enforce_budget(self) -> None:
        while len(self._entries) > self._budget:
            victim, _ = self._entries.popitem(last=False)
            self._spilled.add(victim)
            if self.stats is not None:
                self.stats.spills += 1

    def _is_stale(self, entry) -> bool:
        if self._stale_cutoff is None:
            return False
        cutoff = self._stale_cutoff()
        return cutoff is not None and entry.ts <= cutoff

    def _rehydrate(self, client: str):
        if self.stats is not None:
            self.stats.rehydrations += 1
        wire = _load_tag_wire(self._store, self._tag).get(client)
        self._spilled.discard(client)
        if wire is None:
            return None
        entry = self._decode(wire)
        if self._is_stale(entry):
            # Lazy §3.3.1 GC: absent, exactly as if collected eagerly.  No
            # del record is logged — replay resurrects the entry hot, and
            # recovery prunes it against the recovered write_ts.
            if self.stats is not None:
                self.stats.stale_drops += 1
            return None
        self._entries[client] = entry
        if self._budget is not None:
            self._entries.move_to_end(client)
            self._enforce_budget()
        return entry

    def _merged(self) -> dict:
        """Exact hot+spilled view (pure read apart from pruning stale ids)."""
        merged = dict(self._entries)
        if not self._spilled:
            return merged
        raw = _load_tag_wire(self._store, self._tag)
        gone: list[str] = []
        for client in self._spilled:
            wire = raw.get(client)
            if wire is None:
                gone.append(client)
                continue
            entry = self._decode(wire)
            if self._is_stale(entry):
                gone.append(client)
                if self.stats is not None:
                    self.stats.stale_drops += 1
                continue
            merged[client] = entry
        for client in gone:
            self._spilled.discard(client)
        return merged

    # -- recovery-time mutation: mirror only, no logging --------------------

    def _set_silent(self, client: str, wire: tuple) -> None:
        self._entries[client] = self._decode(wire)

    def _del_silent(self, client: str) -> None:
        self._entries.pop(client, None)
        self._spilled.discard(client)

    def _clear_silent(self) -> None:
        self._entries.clear()
        self._spilled.clear()

    def _post_recover(self) -> None:
        """Re-establish the budget discipline after a full replay.

        Replay lands every surviving entry hot.  Entries the pre-crash
        replica dropped *lazily* (stale spilled entries have no del record)
        resurrect here, so prune them against the recovered cutoff, then
        re-spill down to budget — replay order approximates recency.
        """
        if self._budget is None:
            return
        if self._stale_cutoff is not None:
            cutoff = self._stale_cutoff()
            if cutoff is not None:
                stale = [
                    c for c, e in self._entries.items() if e.ts <= cutoff
                ]
                for client in stale:
                    del self._entries[client]
                    if self.stats is not None:
                        self.stats.stale_drops += 1
        self._enforce_budget()

    def to_wire(self) -> dict[str, Any]:
        return {
            client: self._encode(entry)
            for client, entry in self._merged().items()
        }


class LoggedFastMap(LoggedMap):
    """A ``client -> FastCommitment`` mapping whose mutations hit the WAL.

    The fast-path twin of :class:`LoggedMap`; entries additionally carry the
    hash commitment so the conflict check survives crashes.  Budgeting and
    spill/rehydrate behave identically — fast commitments share the
    ``ts <= write_ts`` staleness criterion.
    """

    __slots__ = ()

    def __init__(
        self,
        store: ReplicaStore,
        *,
        budget: Optional[int] = None,
        stale_cutoff: Optional[StaleCutoff] = None,
        stats: Optional[ClientStateStats] = None,
    ) -> None:
        super().__init__(
            store, "fastc", budget=budget, stale_cutoff=stale_cutoff,
            stats=stats,
        )

    def _decode(self, wire: tuple) -> FastCommitment:
        ts_wire, value_hash, commitment = wire
        return FastCommitment(Timestamp.from_wire(ts_wire), value_hash, commitment)

    def _encode(self, entry: FastCommitment) -> tuple:
        return (entry.ts.to_wire(), entry.value_hash, entry.commitment)


class LoggedSet:
    """A grow-only set of signing-log entries, mirrored to the WAL.

    ``add`` appends a record only for genuinely new members, so
    retransmission-driven re-signing costs no log traffic.
    """

    __slots__ = ("_store", "_tag", "_members")

    def __init__(self, store: ReplicaStore, tag: str) -> None:
        self._store = store
        self._tag = tag
        self._members: set = set()

    def add(self, member: Any) -> None:
        if member in self._members:
            return
        self._store.append((self._tag,) + self._member_wire(member))
        self._members.add(member)
        self._store.maybe_compact()

    def _member_wire(self, member: Any) -> tuple:
        if self._tag == "swr":  # member: Timestamp
            return (member.to_wire(),)
        ts, value_hash, client = member  # spr
        return (ts.to_wire(), value_hash, client)

    def __contains__(self, member: Any) -> bool:
        return member in self._members

    def __iter__(self) -> Iterator[Any]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def _add_silent(self, member: Any) -> None:
        self._members.add(member)

    def _clear_silent(self) -> None:
        self._members.clear()

    def to_wire(self) -> tuple:
        return tuple(sorted(self._member_wire(m) for m in self._members))


class ClientStateTable:
    """The per-client maps (plist/optlist/fastc) under one budget.

    Groups the three maps that scale with the client population, shares one
    :class:`ClientStateStats` across them, and exposes the resident/spilled
    accounting the E21 experiments read.
    """

    def __init__(
        self,
        store: ReplicaStore,
        *,
        budget: Optional[ClientStateBudget] = None,
        stale_cutoff: Optional[StaleCutoff] = None,
        optimized: bool = False,
    ) -> None:
        self._store = store
        self.budget = budget
        self._stale_cutoff = stale_cutoff
        self.stats = ClientStateStats()
        hot = budget.hot_entries if budget is not None else None
        self._hot = hot
        self.plist = LoggedMap(
            store, "plist", budget=hot, stale_cutoff=stale_cutoff,
            stats=self.stats,
        )
        self.optlist: Optional[LoggedMap] = (
            self._make_optlist() if optimized else None
        )
        self.fastc: Optional[LoggedFastMap] = None

    def _make_optlist(self) -> LoggedMap:
        return LoggedMap(
            self._store, "optlist", budget=self._hot,
            stale_cutoff=self._stale_cutoff, stats=self.stats,
        )

    def ensure_optlist(self) -> LoggedMap:
        if self.optlist is None:
            self.optlist = self._make_optlist()
        return self.optlist

    def ensure_fastc(self) -> LoggedFastMap:
        if self.fastc is None:
            self.fastc = LoggedFastMap(
                self._store, budget=self._hot,
                stale_cutoff=self._stale_cutoff, stats=self.stats,
            )
        return self.fastc

    def _maps(self) -> Iterator[LoggedMap]:
        yield self.plist
        if self.optlist is not None:
            yield self.optlist
        if self.fastc is not None:
            yield self.fastc

    @property
    def resident_entries(self) -> int:
        """Hot entries across all per-client maps (the budgeted quantity)."""
        return sum(m.resident for m in self._maps())

    @property
    def spilled_entries(self) -> int:
        return sum(m.spilled for m in self._maps())

    def _post_recover(self) -> None:
        for m in self._maps():
            m._post_recover()


class DurableReplicaState:
    """All Figure-2 replica state, mediated by a :class:`ReplicaStore`.

    Replicas read through properties and mutate through :meth:`install`,
    :meth:`advance_write_ts`, and the logged ``plist``/``optlist``/signing
    collections; nothing protocol-visible changes without a corresponding
    WAL record.  The state registers itself as the store's
    ``snapshot_source`` so the store can compact the log against the full
    current state at any time.

    Args:
        store: backing store (in-memory by default).
        optimized: create the §6 ``optlist`` up front.
        budget: optional :class:`ClientStateBudget` activating the
            spill/rehydrate policy on the per-client maps.
        gc_stale: whether §3.3.1 GC is active (``config.gc_plist``); gates
            the lazy staleness cutoff so a no-GC deployment never drops
            spilled entries.
    """

    def __init__(
        self,
        store: Optional[ReplicaStore] = None,
        *,
        optimized: bool = False,
        budget: Optional[ClientStateBudget] = None,
        gc_stale: bool = True,
    ) -> None:
        self.store: ReplicaStore = store if store is not None else MemoryStore()
        self._data: Any = GENESIS_VALUE
        self._pcert: PrepareCertificate = genesis_prepare_certificate()
        self._write_ts: Timestamp = ZERO_TS
        # The store and the maps call back into this state through a weak
        # reference: were they to hold it, the state would be in a reference
        # cycle, and a dropped replica would stay resident until the next
        # full collection.  A cutoff whose state is gone reports none.
        me = weakref.ref(self)
        cutoff: Optional[StaleCutoff] = (
            (lambda: getattr(me(), "_write_ts", None)) if gc_stale else None
        )
        self.client_state = ClientStateTable(
            self.store, budget=budget, stale_cutoff=cutoff,
            optimized=optimized,
        )
        self.plist = self.client_state.plist
        self.optlist = self.client_state.optlist
        self.fastc: Optional[LoggedFastMap] = None
        self.signed_write_replies = LoggedSet(self.store, "swr")
        self.signed_prepare_replies = LoggedSet(self.store, "spr")
        self.store.snapshot_source = lambda: me().snapshot_wire()

    # -- read side ---------------------------------------------------------

    @property
    def data(self) -> Any:
        return self._data

    @property
    def pcert(self) -> PrepareCertificate:
        return self._pcert

    @property
    def write_ts(self) -> Timestamp:
        return self._write_ts

    # -- write side (always logged) ---------------------------------------

    def install(self, value: Any, cert: PrepareCertificate) -> None:
        """Phase-3 install: the WAL record precedes the visible change."""
        self.store.append(("install", value, cert.to_wire()))
        self._data = value
        self._pcert = cert
        self.store.maybe_compact()

    def advance_write_ts(self, ts: Timestamp) -> None:
        if ts <= self._write_ts:
            return
        self.store.append(("write-ts", ts.to_wire()))
        self._write_ts = ts
        self.store.maybe_compact()

    def ensure_optlist(self) -> LoggedMap:
        """The §6 second prepare list, created on first use."""
        self.optlist = self.client_state.ensure_optlist()
        return self.optlist

    def ensure_fastc(self) -> LoggedFastMap:
        """The fast-path commitment map, created on first use."""
        self.fastc = self.client_state.ensure_fastc()
        return self.fastc

    # -- snapshots and fingerprints ---------------------------------------

    def snapshot_wire(self) -> dict[str, Any]:
        """The full state as one canonical wire value (compaction source).

        Budgeted maps merge their spilled entries back in (read-only), so a
        snapshot-then-truncate never loses an entry that lives only in the
        log being truncated.
        """
        return {
            "data": self._data,
            "pcert": self._pcert.to_wire(),
            "write_ts": self._write_ts.to_wire(),
            "plist": self.plist.to_wire(),
            "optlist": None if self.optlist is None else self.optlist.to_wire(),
            "fastc": None if self.fastc is None else self.fastc.to_wire(),
            "swr": self.signed_write_replies.to_wire(),
            "spr": self.signed_prepare_replies.to_wire(),
        }

    def fingerprint(self, *, include_signing_logs: bool = False) -> bytes:
        """Collision-resistant digest of the Figure-2 state.

        The differential crash-recovery tests compare these across runs, so
        by default two run-dependent-but-equivalent details are left out:
        signing logs (a replica that was down for an operation legitimately
        never signed it) and the *signer sets* inside the stored
        certificate — any quorum of signatures certifies the same
        ``(ts, h)``, and which quorum the client happened to assemble
        depends on who was up.  ``include_signing_logs=True`` restores the
        logs (used when comparing a replica against its own recovery, where
        everything must round-trip exactly).

        Canonical encoding sorts map keys, so a budgeted replica (whose
        merged view assembles entries in a different order) fingerprints
        identically to an unbounded one holding the same entries.
        """
        wire = self.snapshot_wire()
        wire["pcert"] = (self._pcert.ts.to_wire(), self._pcert.h)
        if not include_signing_logs:
            # fastc is fast-path bookkeeping with no analogue in the signed
            # variants, so it sits with the signing logs: excluded from the
            # cross-variant fingerprint, restored for self-recovery checks.
            del wire["swr"], wire["spr"], wire["fastc"]
        return hash_value(wire)

    # -- recovery ----------------------------------------------------------

    def recover(self) -> None:
        """Rebuild from snapshot + log; idempotent under torn final records."""
        snapshot, records = self.store.load()
        self._data = GENESIS_VALUE
        self._pcert = genesis_prepare_certificate()
        self._write_ts = ZERO_TS
        self.plist._clear_silent()
        if self.optlist is not None:
            self.optlist._clear_silent()
        if self.fastc is not None:
            self.fastc._clear_silent()
        self.signed_write_replies._clear_silent()
        self.signed_prepare_replies._clear_silent()
        if snapshot is not None:
            self._restore_snapshot(snapshot)
        for record in records:
            self._apply_record(record)
        self.client_state._post_recover()

    def _restore_snapshot(self, snapshot: Any) -> None:
        if not isinstance(snapshot, dict):
            raise StorageError(f"malformed snapshot: {snapshot!r}")
        self._data = snapshot["data"]
        self._pcert = PrepareCertificate.from_wire(snapshot["pcert"])
        self._write_ts = Timestamp.from_wire(snapshot["write_ts"])
        for client, wire in snapshot["plist"].items():
            self.plist._set_silent(client, wire)
        if snapshot["optlist"] is not None:
            optlist = self.ensure_optlist()
            for client, wire in snapshot["optlist"].items():
                optlist._set_silent(client, wire)
        # Pre-fast-path snapshots have no "fastc" key.
        if snapshot.get("fastc") is not None:
            fastc = self.ensure_fastc()
            for client, wire in snapshot["fastc"].items():
                fastc._set_silent(client, wire)
        for (ts_wire,) in snapshot["swr"]:
            self.signed_write_replies._add_silent(Timestamp.from_wire(ts_wire))
        for ts_wire, value_hash, client in snapshot["spr"]:
            self.signed_prepare_replies._add_silent(
                (Timestamp.from_wire(ts_wire), value_hash, client)
            )

    def _apply_record(self, record: Any) -> None:
        if not isinstance(record, tuple) or not record:
            raise StorageError(f"malformed WAL record: {record!r}")
        tag = record[0]
        if tag == "plist-set":
            self.plist._set_silent(record[1], record[2:])
        elif tag == "plist-del":
            self.plist._del_silent(record[1])
        elif tag == "optlist-set":
            self.ensure_optlist()._set_silent(record[1], record[2:])
        elif tag == "optlist-del":
            self.ensure_optlist()._del_silent(record[1])
        elif tag == "fastc-set":
            self.ensure_fastc()._set_silent(record[1], record[2:])
        elif tag == "fastc-del":
            self.ensure_fastc()._del_silent(record[1])
        elif tag == "install":
            _, value, cert_wire = record
            cert = PrepareCertificate.from_wire(cert_wire)
            # Monotonicity guard makes replaying an overlapping suffix safe.
            if cert.ts > self._pcert.ts or (
                cert.ts == self._pcert.ts and cert.h > self._pcert.h
            ):
                self._data = value
                self._pcert = cert
        elif tag == "write-ts":
            ts = Timestamp.from_wire(record[1])
            if ts > self._write_ts:
                self._write_ts = ts
        elif tag == "swr":
            self.signed_write_replies._add_silent(Timestamp.from_wire(record[1]))
        elif tag == "spr":
            _, ts_wire, value_hash, client = record
            self.signed_prepare_replies._add_silent(
                (Timestamp.from_wire(ts_wire), value_hash, client)
            )
        else:
            raise StorageError(f"unknown WAL record tag {tag!r}")
