"""The replica storage interface and the in-memory backend.

A :class:`ReplicaStore` persists one replica's Figure-2 state as a
*snapshot* plus an ordered log of state-change *records*.  Both are plain
canonically encodable values (:mod:`repro.encoding.canonical`): the store
never sees protocol objects, which keeps this package below ``repro.core``
in the layering.

The contract every backend satisfies:

* ``append(record)`` durably adds one record after everything already
  stored (write-ahead: callers append *before* releasing any message that
  reveals the state change).
* ``group()`` is a re-entrant scope that spends one stable-storage barrier
  per *release* instead of one per record: inside it ``append`` only
  buffers, and the outermost exit makes everything buffered durable before
  control returns to whoever is about to release a reply — also when the
  body raised, because the in-memory state may already have moved.  An
  ``append`` outside any scope is a group of one.
* ``load()`` returns ``(snapshot, records)`` — the most recent snapshot (or
  ``None``) and every record appended after it, in order.  Loading is
  read-only and idempotent.
* ``write_snapshot(state)`` atomically replaces the snapshot with ``state``
  and discards the log records it subsumes (compaction).
* ``crash()`` simulates a process/machine crash: whatever the backend
  would lose on a real power cut disappears.  For :class:`MemoryStore`
  that is everything; for :class:`~repro.storage.filelog.FileLogStore`
  it is the un-fsynced log tail.

Backends auto-compact: when ``snapshot_interval`` records accumulate and a
``snapshot_source`` callback is installed (by
:class:`repro.core.persistence.DurableReplicaState`), :meth:`maybe_compact`
snapshots the store and truncates the log.  Compaction runs only when the
state layer says the state is *consistent* — never from inside ``append``,
because the write-ahead discipline means the in-memory state trails the
record just logged, and snapshotting at that instant would truncate away a
change the snapshot does not contain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Optional

__all__ = ["StorageStats", "ReplicaStore", "MemoryStore"]


class _GroupScope:
    """The context manager :meth:`ReplicaStore.group` hands out.

    Stateless (the depth lives on the store), and made per call rather than
    kept on the store: a store that held its scope would be in a reference
    cycle, and so would everything that holds the store.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "ReplicaStore") -> None:
        self._store = store

    def __enter__(self) -> None:
        self._store._group_depth += 1

    def __exit__(self, *exc_info: Any) -> None:
        store = self._store
        store._group_depth -= 1
        if not store._group_depth and store._group_dirty:
            store._commit_group()


@dataclass
class StorageStats:
    """Per-store durability counters (E16 and the metrics layer read these).

    ``appends``/``appended_bytes`` count write-ahead log activity (bytes are
    0 for the zero-copy memory backend), ``fsyncs`` the stable-storage
    barriers actually issued, ``snapshots`` the compactions.  Recovery
    reports how much log it replayed and whether a torn final record was
    dropped.  The corruption counters separate a *torn* tail (an append cut
    short by a crash — expected, truncated silently) from records or
    snapshots that failed their integrity tag (bit rot or hostile bytes —
    quarantined, and the replica must repair before serving).
    """

    appends: int = 0
    appended_bytes: int = 0
    fsyncs: int = 0
    snapshots: int = 0
    snapshot_bytes: int = 0
    loads: int = 0
    records_replayed: int = 0
    torn_records_dropped: int = 0
    crashes: int = 0
    corrupt_records: int = 0
    corrupt_snapshots: int = 0
    scrub_passes: int = 0

    def reset(self) -> None:
        self.appends = 0
        self.appended_bytes = 0
        self.fsyncs = 0
        self.snapshots = 0
        self.snapshot_bytes = 0
        self.loads = 0
        self.records_replayed = 0
        self.torn_records_dropped = 0
        self.crashes = 0
        self.corrupt_records = 0
        self.corrupt_snapshots = 0
        self.scrub_passes = 0

    def add(self, other: "StorageStats") -> None:
        """Accumulate ``other`` into this block (metrics aggregation)."""
        self.appends += other.appends
        self.appended_bytes += other.appended_bytes
        self.fsyncs += other.fsyncs
        self.snapshots += other.snapshots
        self.snapshot_bytes += other.snapshot_bytes
        self.loads += other.loads
        self.records_replayed += other.records_replayed
        self.torn_records_dropped += other.torn_records_dropped
        self.crashes += other.crashes
        self.corrupt_records += other.corrupt_records
        self.corrupt_snapshots += other.corrupt_snapshots
        self.scrub_passes += other.scrub_passes


class ReplicaStore(ABC):
    """Durable snapshot + write-ahead record log for one replica."""

    def __init__(self, *, snapshot_interval: Optional[int] = None) -> None:
        self.stats = StorageStats()
        self.snapshot_interval = snapshot_interval
        #: Callback returning the full current state in wire form; installed
        #: by the state layer so the store can compact autonomously.
        self.snapshot_source: Optional[Callable[[], Any]] = None
        #: Set by :meth:`load` when it had to quarantine corrupt bytes to
        #: produce its result.  The returned state is the best *verified*
        #: prefix, but it may trail what the replica once acknowledged —
        #: callers (the replica recovery path) must treat the store as
        #: needing repair from peers rather than serving from it directly.
        self.suspect = False
        self._records_since_snapshot = 0
        self._group_depth = 0
        #: Appends buffered inside a scope that no barrier has covered yet
        #: (only backends with stable storage ever raise it).
        self._group_dirty = False

    # -- group commit --------------------------------------------------------

    def group(self) -> ContextManager[None]:
        """Scope whose appends share the one barrier issued when it closes.

        Re-entrant: only the outermost exit commits.  Whoever releases
        replies must do so *after* the scope closes.
        """
        return _GroupScope(self)

    def _commit_group(self) -> None:
        """Make every buffered append as durable as this store promises."""
        self.sync()

    # -- the durable contract ------------------------------------------------

    @abstractmethod
    def append(self, record: Any) -> None:
        """Append one canonically encodable record to the log.

        Durable on return, or, inside a :meth:`group`, once the outermost
        scope has closed.
        """

    @abstractmethod
    def load(self) -> tuple[Any, list[Any]]:
        """Return ``(snapshot_or_None, records_after_it)``; idempotent."""

    @abstractmethod
    def write_snapshot(self, state: Any) -> None:
        """Atomically replace the snapshot and truncate the log."""

    @abstractmethod
    def sync(self) -> None:
        """Force everything appended so far to stable storage."""

    @abstractmethod
    def crash(self) -> None:
        """Simulate a crash: drop whatever would not survive a power cut."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any backing resources (file handles)."""

    def scrub(self) -> dict[str, Any]:
        """Re-verify every stored byte without mutating anything.

        Returns a report dict with at least ``clean`` (bool) and the
        per-category problem counts.  Backends without integrity tags (the
        memory store) trivially report clean — there is nothing on disk to
        rot.  File-backed stores override this to re-check every seal.
        """
        self.stats.scrub_passes += 1
        return {
            "clean": True,
            "snapshot_ok": True,
            "records_verified": 0,
            "torn_records": 0,
            "corrupt_records": 0,
            "corrupt_snapshots": 0,
        }

    # -- state transfer ----------------------------------------------------

    def import_state(self, payload: dict[str, Any]) -> None:
        """Replace this store's contents with a ``{"snapshot": ..., "records":
        [...]}`` payload, the shape of what :meth:`load` returns.

        Used when a replica bootstraps from peers: the snapshot is installed
        first (which also truncates any pre-existing log), the records are
        re-appended in order under one group, and the result is forced to
        stable storage (whatever the sync policy) so a crash immediately
        after bootstrap does not silently lose the transferred state.
        """
        if not isinstance(payload, dict) or not {"snapshot", "records"} <= set(payload):
            raise ValueError(f"malformed state-transfer payload: {payload!r}")
        with self.group():
            self.write_snapshot(payload["snapshot"])
            for record in payload["records"]:
                self.append(record)
            self.sync()

    # -- compaction --------------------------------------------------------

    def _note_append(self) -> None:
        """Bookkeeping after a successful append."""
        self._records_since_snapshot += 1

    def maybe_compact(self) -> None:
        """Snapshot + truncate if enough records accumulated.

        Callers invoke this *after* applying a logged mutation to their
        in-memory state, when snapshot_source reflects every appended
        record; compacting from inside ``append`` would snapshot a state
        that trails the log and silently lose the in-flight record.
        """
        if (
            self.snapshot_interval is not None
            and self.snapshot_source is not None
            and self._records_since_snapshot >= self.snapshot_interval
        ):
            self.write_snapshot(self.snapshot_source())


class MemoryStore(ReplicaStore):
    """Today's behaviour: state lives in process memory, zero-copy.

    Records are retained as live Python objects — nothing is encoded, so
    the hot path costs one ``list.append``.  A simulated :meth:`crash`
    wipes the store (RAM is volatile), which is exactly how a replica
    without durable storage forgets its prepare lists; the crash-recovery
    experiments use this as the unsafe baseline.

    ``snapshot_interval`` defaults to 4096 so long simulations do not
    accumulate unbounded record lists.
    """

    def __init__(self, *, snapshot_interval: Optional[int] = 4096) -> None:
        super().__init__(snapshot_interval=snapshot_interval)
        self._snapshot: Any = None
        self._records: list[Any] = []

    def append(self, record: Any) -> None:
        self._records.append(record)
        self.stats.appends += 1
        self._note_append()

    def load(self) -> tuple[Any, list[Any]]:
        self.stats.loads += 1
        self.stats.records_replayed += len(self._records)
        return self._snapshot, list(self._records)

    def write_snapshot(self, state: Any) -> None:
        self._snapshot = state
        self._records.clear()
        self._records_since_snapshot = 0
        self.stats.snapshots += 1

    def sync(self) -> None:
        pass  # memory has no stable storage to sync to

    def crash(self) -> None:
        self._snapshot = None
        self._records.clear()
        self._records_since_snapshot = 0
        self.stats.crashes += 1
