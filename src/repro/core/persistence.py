"""Durable replica state: the bridge between replicas and their store.

:class:`DurableReplicaState` owns every piece of Figure-2 state a
:class:`~repro.core.replica.BftBcReplica` holds — ``data``, ``pcert``,
``plist`` (and the §6 ``optlist``), ``write_ts`` — plus the fast-path
commitments and the signing logs the executable Lemma 1 invariants read.
Every mutation is appended to the backing
:class:`~repro.storage.base.ReplicaStore` *before* the change becomes
visible, so a replica can be rebuilt after a crash by replaying
snapshot + log (:meth:`DurableReplicaState.recover`).
Each field is declared once, in :data:`DURABLE_FIELDS`: its name, record
tags, wire codec and replay rule, and how the fingerprint, repair and the
client-state budget treat it.  The snapshot, fingerprint, recovery,
snapshot restore, record replay and repair merge are derived from that
table, and so is PROTOCOL.md's durable-record table.  Replay is idempotent
(maps are last-writer-wins, scalars monotone, signing logs grow-only), so a
WAL suffix that overlaps an applied snapshot re-applies to the same state.

**Per-client state budgets.**  A :class:`ClientStateBudget` caps how many
entries each spillable map keeps *hot* in memory; the rest are **spilled**:
dropped from the mirror while their latest logged record stays the
authoritative copy.  A later access **rehydrates** an entry by replaying
snapshot + log for its tags — the recovery path — so a budgeted replica
behaves and fingerprints like an unbounded one.  Stale entries
(``ts <= write_ts``, §3.3.1) are collected eagerly while hot and lazily once
spilled; the two agree because entries are only added above the
then-current ``write_ts`` and the cutoff only advances.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.core.certificates import GENESIS_VALUE, PrepareCertificate
from repro.core.certificates import genesis_prepare_certificate
from repro.core.timestamp import ZERO_TS, Timestamp
from repro.crypto.hashing import hash_value
from repro.errors import ReproError, StorageError
from repro.storage import MemoryStore, ReplicaStore

__all__ = [
    "PlistEntry", "FastCommitment", "DurableField",
    "ClientStateBudget", "ClientStateStats", "ClientStateTable",
    "DurableReplicaState",
]

#: ``() -> cutoff``: entries at or below the cutoff are garbage (§3.3.1).
StaleCutoff = Callable[[], Optional[Timestamp]]


@dataclass(frozen=True)
class PlistEntry:
    """One proposed write: the ``(t, h)`` of a client's prepare."""

    ts: Timestamp
    value_hash: bytes

    def to_wire(self) -> tuple:
        return (self.ts.to_wire(), self.value_hash)

    @classmethod
    def from_wire(cls, wire: tuple) -> "PlistEntry":
        return cls(Timestamp.from_wire(wire[0]), wire[1])


@dataclass(frozen=True)
class FastCommitment:
    """One fast-path prepare: the ``(t, h, C)`` a replica MAC-acked.

    Logged so a recovered replica still refuses to ack the same predicted
    timestamp for a *different* ``(h, C)``.
    """

    ts: Timestamp
    value_hash: bytes
    commitment: bytes

    def to_wire(self) -> tuple:
        return (self.ts.to_wire(), self.value_hash, self.commitment)

    @classmethod
    def from_wire(cls, wire: tuple) -> "FastCommitment":
        return cls(Timestamp.from_wire(wire[0]), wire[1], wire[2])


#: Replay rules.  A map's tags are ``(<set>, <del>)``; the other rules have
#: one tag each, and a monotone install's record carries ``(data, pcert)``.
LWW_MAP = "last-writer-wins map"
MONOTONE_SCALAR = "monotone scalar"
MONOTONE_INSTALL = "monotone install"
GROW_SET = "grow-only set"


@dataclass(frozen=True, eq=False)
class DurableField:
    """One declared piece of durable replica state.

    ``name`` is the snapshot key and the attribute holding the live value
    (``_<name>`` for a scalar); ``tags`` are the WAL record tags that mutate
    it; ``to_wire`` / ``from_wire`` translate one value, map entry or set
    member (a wire tuple of ``arity``); ``initial`` makes the fresh wire
    form (None: a map created on first use).  ``fingerprinted`` and ``digest``
    shape the cross-variant fingerprint, ``local`` keeps our own copy on
    repair, and ``spillable`` puts a map under the budget.
    """

    name: str
    rule: str
    tags: tuple[str, ...]
    to_wire: Callable[[Any], Any]
    from_wire: Callable[[Any], Any]
    initial: Optional[Callable[[], Any]]
    arity: Optional[int] = None
    fingerprinted: bool = True
    digest: Optional[Callable[[Any], Any]] = None
    local: bool = False
    spillable: bool = False


def _opaque(value: Any) -> Any:
    return value


#: The replica's durable state.  ``data`` has no tag of its own: ``pcert``'s
#: ``install`` record carries both.  ``fastc`` (MAC-acked commitments, with
#: no analogue in the signed variants) sits with the signing logs: out of
#: the cross-variant fingerprint and never taken from a peer.
DURABLE_FIELDS: tuple[DurableField, ...] = (
    DurableField("data", MONOTONE_INSTALL, (), _opaque, _opaque,
                 lambda: GENESIS_VALUE),
    DurableField("pcert", MONOTONE_INSTALL, ("install",), PrepareCertificate.to_wire,
                 PrepareCertificate.from_wire,
                 lambda: genesis_prepare_certificate().to_wire(),
                 digest=lambda cert: (cert.ts.to_wire(), cert.h)),
    DurableField("write_ts", MONOTONE_SCALAR, ("write-ts",), Timestamp.to_wire,
                 Timestamp.from_wire, ZERO_TS.to_wire),
    DurableField("plist", LWW_MAP, ("plist-set", "plist-del"), PlistEntry.to_wire,
                 PlistEntry.from_wire, dict, 2, spillable=True),
    DurableField("optlist", LWW_MAP, ("optlist-set", "optlist-del"), PlistEntry.to_wire,
                 PlistEntry.from_wire, None, 2, spillable=True),
    DurableField("fastc", LWW_MAP, ("fastc-set", "fastc-del"), FastCommitment.to_wire,
                 FastCommitment.from_wire, None, 3,
                 fingerprinted=False, local=True, spillable=True),
    DurableField("swr", GROW_SET, ("swr",), lambda ts: (ts.to_wire(),),
                 lambda wire: Timestamp.from_wire(wire[0]), tuple, 1,
                 fingerprinted=False, local=True),
    DurableField("spr", GROW_SET, ("spr",), lambda m: (m[0].to_wire(), m[1], m[2]),
                 lambda wire: (Timestamp.from_wire(wire[0]), wire[1], wire[2]), tuple, 3,
                 fingerprinted=False, local=True),
)


def _entry(field: DurableField, wire: Any) -> Any:
    """Decode one map entry or set member, checking its wire shape."""
    if not isinstance(wire, tuple) or len(wire) != field.arity:
        raise StorageError(f"malformed {field.name} entry: {wire!r}")
    return field.from_wire(wire)


@dataclass(frozen=True)
class ClientStateBudget:
    """Resident-entry cap (``hot_entries``) for each spillable per-client map."""

    hot_entries: int = 1024

    def __post_init__(self) -> None:
        if self.hot_entries < 1:
            raise StorageError(f"hot_entries must be >= 1, got {self.hot_entries}")


@dataclass
class ClientStateStats:
    """Spill/rehydrate counters for one replica's per-client state (E21)."""

    spills: int = 0
    rehydrations: int = 0
    stale_drops: int = 0


class LoggedMap:
    """A ``client -> entry`` map whose ``[]=`` and ``del`` hit the WAL first.

    With a ``budget`` the mirror holds at most that many hot entries in LRU
    order; colder ones spill and rehydrate on access (see module docs).
    """

    __slots__ = ("_store", "_field", "_entries", "_budget", "_spilled",
                 "_stale_cutoff", "stats")

    def __init__(self, store: ReplicaStore, field: DurableField, *,
                 budget: Optional[int] = None,
                 stale_cutoff: Optional[StaleCutoff] = None,
                 stats: Optional[ClientStateStats] = None) -> None:
        self._store = store
        self._field = field
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._budget = budget
        self._spilled: set[str] = set()
        self._stale_cutoff = stale_cutoff or (lambda: None)
        self.stats = stats if stats is not None else ClientStateStats()

    def get(self, client: str):
        entry = self._entries.get(client)
        if entry is None:
            return self._rehydrate(client) if client in self._spilled else None
        if self._budget is not None:
            self._entries.move_to_end(client)
        return entry

    def __getitem__(self, client: str):
        entry = self.get(client)
        if entry is None:
            raise KeyError(client)
        return entry

    def __contains__(self, client: str) -> bool:
        return client in self._entries or (
            client in self._spilled and self.get(client) is not None
        )

    def _view(self) -> dict:
        """Every live entry: the mirror, merged with the spilled ones."""
        return self._merged() if self._spilled else self._entries

    def __len__(self) -> int:
        return len(self._view())

    def __iter__(self) -> Iterator[str]:
        return iter(self._view())

    def items(self):
        return self._view().items()

    def values(self):
        return self._view().values()

    def __setitem__(self, client: str, entry) -> None:
        self._store.append((self._field.tags[0], client) + self._field.to_wire(entry))
        self._spilled.discard(client)
        self._entries[client] = entry
        if self._budget is not None:
            self._entries.move_to_end(client)
            self._enforce_budget()
        self._store.maybe_compact()

    def __delitem__(self, client: str) -> None:
        if self._entries.pop(client, None) is None:
            if client not in self._spilled:
                raise KeyError(client)  # never reaches the log
            self._spilled.discard(client)
        self._store.append((self._field.tags[1], client))
        self._store.maybe_compact()

    def gc_stale(self, cutoff: Timestamp) -> list[str]:
        """Eagerly collect hot entries at or below ``cutoff`` (§3.3.1)."""
        stale = [c for c, e in self._entries.items() if e.ts <= cutoff]
        for client in stale:
            del self[client]
        return stale

    def replay(self, record: tuple) -> None:
        """Apply one logged set or del record: the last writer wins."""
        if record[0] == self._field.tags[0]:
            self._entries[record[1]] = self._field.from_wire(record[2:])
        else:
            self._entries.pop(record[1], None)

    def restore(self, wire: Any) -> None:
        if not isinstance(wire, dict):
            raise StorageError(f"{self._field.name} is not a map: {wire!r}")
        self._entries = OrderedDict(
            (client, _entry(self._field, e)) for client, e in wire.items()
        )
        self._spilled.clear()

    def clear(self) -> None:
        self._entries.clear()
        self._spilled.clear()

    def _enforce_budget(self) -> None:
        while len(self._entries) > self._budget:
            self._spilled.add(self._entries.popitem(last=False)[0])
            self.stats.spills += 1

    def _stale(self, entry: Any) -> bool:
        """Whether ``entry`` is garbage by now; a lazy collection is counted."""
        cutoff = self._stale_cutoff()
        if cutoff is None or entry.ts > cutoff:
            return False
        self.stats.stale_drops += 1
        return True

    def _stored(self) -> dict[str, tuple]:
        """``client -> entry wire`` from the store, replayed like recovery.

        Read-only, so safe mid-compaction (``load`` is idempotent)."""
        snapshot, records = self._store.load()
        stored = dict((snapshot or {}).get(self._field.name) or {})
        set_tag, del_tag = self._field.tags
        for record in records:
            if record[0] == set_tag:
                stored[record[1]] = record[2:]
            elif record[0] == del_tag:
                stored.pop(record[1], None)
        return stored

    def _live(self, wire: Optional[tuple]) -> Any:
        """The stored entry, or None when absent or stale: lazy §3.3.1 GC logs
        no del record (replay resurrects the entry and recovery prunes it)."""
        entry = None if wire is None else self._field.from_wire(wire)
        return None if entry is None or self._stale(entry) else entry

    def _rehydrate(self, client: str):
        self.stats.rehydrations += 1
        self._spilled.discard(client)
        entry = self._live(self._stored().get(client))
        if entry is not None:
            self._entries[client] = entry
            self._enforce_budget()
        return entry

    def _merged(self) -> dict:
        """Exact hot+spilled view (pure read apart from pruning stale ids)."""
        merged = dict(self._entries)
        stored = self._stored()
        for client in list(self._spilled):
            entry = self._live(stored.get(client))
            if entry is None:
                self._spilled.discard(client)
            else:
                merged[client] = entry
        return merged

    def _post_recover(self) -> None:
        """Prune entries replay resurrected (lazily dropped ones have no del
        record), then re-spill to budget in replay order."""
        if self._budget is not None:
            for client in [c for c, e in self._entries.items() if self._stale(e)]:
                del self._entries[client]
            self._enforce_budget()

    def to_wire(self) -> dict[str, Any]:
        to_wire = self._field.to_wire
        return {client: to_wire(entry) for client, entry in self._view().items()}


class LoggedSet:
    """A grow-only set mirrored to the WAL; re-adding a member logs nothing."""

    __slots__ = ("_store", "_field", "_members")

    def __init__(self, store: ReplicaStore, field: DurableField) -> None:
        self._store = store
        self._field = field
        self._members: set = set()

    def add(self, member: Any) -> None:
        if member in self._members:
            return
        self._store.append((self._field.tags[0],) + self._field.to_wire(member))
        self._members.add(member)
        self._store.maybe_compact()

    def __contains__(self, member: Any) -> bool:
        return member in self._members

    def __iter__(self) -> Iterator[Any]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def replay(self, record: tuple) -> None:
        self._members.add(self._field.from_wire(record[1:]))

    def restore(self, wire: Any) -> None:
        if not isinstance(wire, tuple):
            raise StorageError(f"{self._field.name} is not a set: {wire!r}")
        self._members = {_entry(self._field, member) for member in wire}

    def clear(self) -> None:
        self._members.clear()

    def to_wire(self) -> tuple:
        return tuple(sorted(self._field.to_wire(m) for m in self._members))


COLLECTIONS = {LWW_MAP: LoggedMap, GROW_SET: LoggedSet}


class ClientStateTable:
    """The spillable per-client maps, one budget and the E21 accounting."""

    def __init__(self, store: ReplicaStore, *,
                 budget: Optional[ClientStateBudget] = None,
                 stale_cutoff: Optional[StaleCutoff] = None) -> None:
        self._store = store
        self.budget = budget
        self._stale_cutoff = stale_cutoff
        self.stats = ClientStateStats()
        self._maps: list[LoggedMap] = []

    def open(self, field: DurableField) -> LoggedMap:
        log = LoggedMap(
            self._store, field, stale_cutoff=self._stale_cutoff, stats=self.stats,
            budget=None if self.budget is None else self.budget.hot_entries,
        )
        self._maps.append(log)
        return log

    @property
    def resident_entries(self) -> int:
        """Hot entries across all per-client maps (the budgeted quantity)."""
        return sum(len(m._entries) for m in self._maps)

    @property
    def spilled_entries(self) -> int:
        return sum(len(m._spilled) for m in self._maps)


class DurableReplicaState:
    """All durable replica state, mediated by a :class:`ReplicaStore`.

    Scalars are read through properties and collections as attributes named
    after their fields (:meth:`open` creates one); :meth:`install`,
    :meth:`advance` and the collections log every mutation.  Everything else
    walks :attr:`FIELDS`, so a subclass that extends the table gets its
    field logged, replayed, snapshotted and fingerprinted with no other
    edit.  ``gc_stale`` (``config.gc_plist``) gates the lazy staleness
    cutoff, so a no-GC deployment never drops spilled entries.
    """

    FIELDS: tuple[DurableField, ...] = DURABLE_FIELDS

    def __init__(self, store: Optional[ReplicaStore] = None, *,
                 budget: Optional[ClientStateBudget] = None,
                 gc_stale: bool = True) -> None:
        self.store: ReplicaStore = store if store is not None else MemoryStore()
        self._by_name = {field.name: field for field in self.FIELDS}
        self._by_tag = {tag: field for field in self.FIELDS for tag in field.tags}
        # The store and the maps reach this state through a weak reference,
        # so a dropped replica is in no reference cycle and is freed at once.
        me = weakref.ref(self)
        cutoff = (lambda: getattr(me(), "_write_ts", None)) if gc_stale else None
        self.client_state = ClientStateTable(
            self.store, budget=budget, stale_cutoff=cutoff)
        self._restore(self._fresh())
        self.store.snapshot_source = lambda: me().snapshot_wire()

    data = property(lambda self: self._data)
    pcert = property(lambda self: self._pcert)
    write_ts = property(lambda self: self._write_ts)

    def open(self, name: str):
        """The collection behind field ``name``, created on first use."""
        if not hasattr(self, name):
            field = self._by_name[name]
            setattr(self, name, (
                self.client_state.open(field) if field.spillable
                else COLLECTIONS[field.rule](self.store, field)
            ))
        return getattr(self, name)

    def install(self, value: Any, cert: PrepareCertificate) -> None:
        """Phase-3 install: the WAL record precedes the visible change."""
        self.store.append((self._by_name["pcert"].tags[0], value, cert.to_wire()))
        self._data = value
        self._pcert = cert
        self.store.maybe_compact()

    def advance(self, name: str, value: Any) -> None:
        """Move monotone scalar ``name`` forward to ``value`` (logged)."""
        if value <= getattr(self, "_" + name):
            return
        field = self._by_name[name]
        self.store.append((field.tags[0], field.to_wire(value)))
        setattr(self, "_" + name, value)
        self.store.maybe_compact()

    def perturb(self, name: str, garbage: Any) -> None:
        """A memory fault in field ``name``, behind the log's back: a
        collection forgets every entry, a typed scalar falls back to its
        initial value, and the opaque object value becomes ``garbage``."""
        field = self._by_name.get(name)
        if field is None:
            raise ValueError(f"unknown durable field {name!r}")
        if field.rule in COLLECTIONS:
            if hasattr(self, name):
                getattr(self, name).clear()
        else:
            setattr(self, "_" + name, garbage if field.from_wire is _opaque
                    else field.from_wire(field.initial()))

    def _fresh(self) -> dict[str, Any]:
        return {field.name: field.initial and field.initial() for field in self.FIELDS}

    def _wire(self, field: DurableField) -> Any:
        if field.rule not in COLLECTIONS:
            return field.to_wire(getattr(self, "_" + field.name))
        log = getattr(self, field.name, None)
        return None if log is None else log.to_wire()

    def snapshot_wire(self) -> dict[str, Any]:
        """The full state as one canonical wire value (compaction source);
        budgeted maps merge their spilled entries back in."""
        return {field.name: self._wire(field) for field in self.FIELDS}

    def fingerprint(self, *, include_signing_logs: bool = False) -> bytes:
        """Collision-resistant digest of the durable state.

        By default comparable across runs and variants: fields not
        ``fingerprinted`` are left out (a replica that was down legitimately
        never signed), and the certificate is reduced to its ``digest`` (any
        quorum of signers certifies the same ``(ts, h)``).
        ``include_signing_logs=True`` keeps every field, for comparing a
        replica with its own recovery.
        """
        return hash_value({
            field.name: (
                self._wire(field) if field.digest is None
                else field.digest(getattr(self, "_" + field.name))
            )
            for field in self.FIELDS
            if field.fingerprinted or include_signing_logs
        })

    def recover(self) -> None:
        """Rebuild from snapshot + log; idempotent under torn final records."""
        snapshot, records = self.store.load()
        self._restore(self._fresh() if snapshot is None else snapshot)
        for record in records:
            field = isinstance(record, tuple) and record and self._by_tag.get(record[0])
            if not field:
                raise StorageError(f"malformed WAL record: {record!r}")
            if field.rule in COLLECTIONS:
                self.open(field.name).replay(record)
            elif field.rule == MONOTONE_SCALAR:
                value = field.from_wire(record[1])
                if value > getattr(self, "_" + field.name):
                    setattr(self, "_" + field.name, value)
            else:  # MONOTONE_INSTALL: newer certificates only
                cert = field.from_wire(record[2])
                if (cert.ts, cert.h) > (self._pcert.ts, self._pcert.h):
                    self._data, self._pcert = record[1], cert
        for log in self.client_state._maps:
            log._post_recover()

    def _restore(self, snapshot: Any) -> None:
        """Replace every field from a snapshot, checking each wire shape."""
        if not isinstance(snapshot, dict):
            raise StorageError(f"malformed snapshot: {snapshot!r}")
        for field in self.FIELDS:
            if field.name not in snapshot:
                raise StorageError(f"snapshot lacks field {field.name!r}")
            wire = snapshot[field.name]
            try:
                if field.rule not in COLLECTIONS:
                    setattr(self, "_" + field.name, field.from_wire(wire))
                elif wire is not None or field.initial is not None:
                    self.open(field.name).restore(wire)
                elif hasattr(self, field.name):
                    getattr(self, field.name).clear()
            except ReproError as exc:
                raise StorageError(f"malformed snapshot {field.name!r}: {exc}") from exc

    def adopt(self, snapshot: dict[str, Any]) -> None:
        """Replace the state with a validated peer snapshot (repair), except
        ``local`` fields, which a fresh replay of our own store supplies."""
        self.recover()
        own = self.snapshot_wire()
        self.store.write_snapshot({
            field.name: own[field.name] if field.local else snapshot[field.name]
            for field in self.FIELDS
        })
        self.recover()
