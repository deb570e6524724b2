"""Write-ahead file log with snapshot compaction and integrity tags.

Layout inside the store directory::

    snapshot.bin        one framed, sealed canonical value: the last
                        compacted state
    snapshot.prev.bin   the previous snapshot generation (fallback when
                        the current one fails its integrity check)
    wal.bin             framed, sealed canonical records appended since
                        the current snapshot
    wal.quarantine.*    corrupt WAL tails preserved for post-mortem

Payloads are :func:`repro.encoding.canonical_encode` values *sealed* with a
domain-separated SHA-256 tag (:mod:`repro.storage.integrity`) and wrapped in
the length-prefixed frames of :mod:`repro.encoding.codec`, so the same
decoder that drives the transport drives recovery — plus a constant-time
integrity check per record.

Durability model — one barrier per released reply batch:

* ``fsync="always"`` (default) issues one fsync per *group*
  (:meth:`~repro.storage.base.ReplicaStore.group`): appends inside a scope
  are buffered, and the outermost exit writes them with one ``write(2)``
  and one fsync before anything that reveals them can be released — every
  acknowledged state change survives any crash.  The scope is opened by
  :meth:`repro.core.replica.BftBcReplica.handle`, so every host gets the
  barrier by construction, and widened by the host that releases several
  replies at once: ``ReplicaServer._handle_chunk`` (all frames of one
  socket read).
  An append outside any scope is a group of one.
* ``fsync="never"`` hands each group to the OS with one flush and leaves
  the barrier to it; a crash loses the unsynced tail, which
  :meth:`FileLogStore.crash` simulates by truncating to the last synced
  offset.

Recovery (:meth:`FileLogStore.load`) distinguishes two failure shapes:

* **Torn tail** — an append cut short by a crash leaves a strict prefix of
  a valid frame at EOF (:class:`~repro.errors.IncompleteFrameError`).
  Expected; the log is truncated back to the last complete record, exactly
  as before.
* **Corruption** — bad frame magic mid-file, an impossible length, or a
  complete frame whose integrity tag or canonical encoding fails.  A crash
  cannot produce these (appends are sequential), so the store quarantines
  the bad record *and everything after it* (order matters: a record after
  the damage may depend on state the damaged record carried), moves the
  bad tail to a ``wal.quarantine.<offset>.bin`` file, bumps
  ``stats.corrupt_records`` and raises the :attr:`~ReplicaStore.suspect`
  flag.  The replica layer sees ``suspect`` and repairs from peers instead
  of serving the (verified but possibly trailing) prefix.

Snapshots carry the same seal.  ``write_snapshot`` keeps the previous
generation as ``snapshot.prev.bin``; if the current snapshot fails its
check on load, recovery quarantines it and falls back to the previous
generation, and failing that to WAL-only replay — always raising
``suspect`` so the state is repaired, never trusted silently.

:meth:`FileLogStore.scrub` re-verifies every stored byte read-only, for
periodic self-audit and the ``python -m repro storage scrub`` CLI.
"""

from __future__ import annotations

import enum
import os
import pathlib
from typing import Any, Iterator, Optional, Union

from repro.encoding import canonical_decode, canonical_encode, decode_frame, encode_frame
from repro.errors import EncodingError, IncompleteFrameError, IntegrityError, StorageError
from repro.storage.base import ReplicaStore
from repro.storage.integrity import SNAPSHOT_DOMAIN, WAL_RECORD_DOMAIN, seal, unseal

__all__ = ["FileLogStore"]

_SNAPSHOT = "snapshot.bin"
_SNAPSHOT_PREV = "snapshot.prev.bin"
_WAL = "wal.bin"


class _Damage(enum.Enum):
    """How a WAL walk ended early (no canonical record is ever one of
    these); the value is the :meth:`FileLogStore.scrub` counter it bumps."""

    #: Incomplete final frame — a crash mid-append.
    TORN = "torn_records"
    #: A complete frame that fails its seal, undecodable sealed bytes, or a
    #: mangled header: bytes changed after they were written.
    CORRUPT = "corrupt_records"


class FileLogStore(ReplicaStore):
    """Durable :class:`~repro.storage.base.ReplicaStore` backed by files."""

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        fsync: str = "always",
        snapshot_interval: Optional[int] = 1024,
    ) -> None:
        if fsync not in ("always", "never"):
            raise StorageError(f"unknown fsync policy {fsync!r}")
        super().__init__(snapshot_interval=snapshot_interval)
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._wal_path = self.directory / _WAL
        self._snapshot_path = self.directory / _SNAPSHOT
        self._snapshot_prev_path = self.directory / _SNAPSHOT_PREV
        self._wal = open(self._wal_path, "ab")
        #: Bytes of the WAL known to be on stable storage; a simulated
        #: crash truncates back to here.
        self._synced_size = self._wal_path.stat().st_size

    @property
    def wal_path(self) -> pathlib.Path:
        """Location of the write-ahead log (chaos injection targets this)."""
        return self._wal_path

    @property
    def snapshot_path(self) -> pathlib.Path:
        """Location of the current snapshot generation."""
        return self._snapshot_path

    # -- appending ---------------------------------------------------------

    def append(self, record: Any) -> None:
        frame = encode_frame(seal(canonical_encode(record), WAL_RECORD_DOMAIN))
        self._wal.write(frame)
        self.stats.appends += 1
        self.stats.appended_bytes += len(frame)
        self._note_append()
        if self._group_depth:
            self._group_dirty = True
        else:
            self._commit_group()

    def _commit_group(self) -> None:
        if self.fsync == "always":
            self.sync()
        else:
            self._wal.flush()
            self._group_dirty = False

    def sync(self) -> None:
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self.stats.fsyncs += 1
        self._synced_size = self._wal.tell()
        self._group_dirty = False

    # -- snapshots ---------------------------------------------------------

    def write_snapshot(self, state: Any) -> None:
        frame = encode_frame(seal(canonical_encode(state), SNAPSHOT_DOMAIN))
        tmp_path = self.directory / (_SNAPSHOT + ".tmp")
        with open(tmp_path, "wb") as tmp:
            tmp.write(frame)
            tmp.flush()
            os.fsync(tmp.fileno())
        # Keep the outgoing snapshot as the previous generation; if the new
        # one rots on disk, recovery falls back to prev + (truncated) WAL.
        if self._snapshot_path.exists():
            os.replace(self._snapshot_path, self._snapshot_prev_path)
        os.replace(tmp_path, self._snapshot_path)
        self._fsync_directory()
        # The snapshot now subsumes every logged record: truncate the WAL.
        self._wal.close()
        self._wal = open(self._wal_path, "wb")
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self._synced_size = 0
        # Every buffered append is in the snapshot: no barrier left to pay.
        self._group_dirty = False
        self._records_since_snapshot = 0
        self.stats.snapshots += 1
        self.stats.snapshot_bytes += len(frame)
        self.stats.fsyncs += 2  # snapshot file + emptied WAL

    def _fsync_directory(self) -> None:
        try:
            dir_fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(dir_fd)
            self.stats.fsyncs += 1
        finally:
            os.close(dir_fd)

    # -- recovery ----------------------------------------------------------

    def load(self) -> tuple[Any, list[Any]]:
        """Read snapshot + log, sorting torn tails from real corruption.

        Always returns the best fully *verified* state.  If any byte failed
        its integrity check on the way, :attr:`suspect` is True and the
        caller must repair from peers before serving — the verified prefix
        may trail writes this replica already acknowledged.
        """
        self.stats.loads += 1
        self.suspect = False
        snapshot = self._load_snapshot()
        records: list[Any] = []
        good_size = 0
        damage: Optional[_Damage] = None
        for item, good_size in self._walk_wal():
            if isinstance(item, _Damage):
                damage = item
            else:
                records.append(item)
        if damage is not None:
            if damage is _Damage.CORRUPT:
                self.stats.corrupt_records += 1
                self.suspect = True
                self._quarantine_wal_tail(good_size)
            else:
                self.stats.torn_records_dropped += 1
            # Cut the log back to its last good record so the bad tail can
            # never resurface; recovery is idempotent after this.
            self._truncate_wal(good_size)
        self.stats.records_replayed += len(records)
        return snapshot, records

    def _truncate_wal(self, good_size: int) -> None:
        self._wal.close()
        with open(self._wal_path, "r+b") as wal:
            wal.truncate(good_size)
            wal.flush()
            os.fsync(wal.fileno())
        self._wal = open(self._wal_path, "ab")
        self._synced_size = min(self._synced_size, good_size)

    def _quarantine_wal_tail(self, good_size: int) -> None:
        """Preserve the corrupt tail for post-mortem before truncating."""
        raw = self._wal_path.read_bytes()
        quarantine = self.directory / f"wal.quarantine.{good_size}.bin"
        quarantine.write_bytes(raw[good_size:])

    def _load_snapshot(self) -> Any:
        """Best verified snapshot: current, else previous generation, else None.

        A missing current snapshot with an existing previous one is the
        crash window inside ``write_snapshot`` (after the outgoing snapshot
        moved to prev, before the new one landed): the prev generation plus
        the still-untruncated WAL is exactly the pre-snapshot state, so
        falling back is silent.  A current snapshot that *fails its seal* is
        corruption: quarantine it, count it, raise ``suspect``, then try the
        previous generation before giving up and replaying the WAL alone.
        """
        current = self._read_snapshot_file(self._snapshot_path)
        if current is not None:
            return current
        return self._read_snapshot_file(self._snapshot_prev_path)

    def _read_snapshot_file(self, path: pathlib.Path) -> Any:
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        if not raw:
            return None
        try:
            payload, rest = decode_frame(raw)
            if rest:
                raise EncodingError("trailing bytes after snapshot frame")
            return canonical_decode(unseal(payload, SNAPSHOT_DOMAIN))
        except (EncodingError, IntegrityError):
            # Snapshots are written atomically (tmp + fsync + rename), so a
            # bad one means real on-disk corruption, never a torn write.
            self.stats.corrupt_snapshots += 1
            self.suspect = True
            os.replace(path, path.with_suffix(".quarantine"))
            return None

    def _walk_wal(self) -> Iterator[tuple[Any, int]]:
        """Walk the log once: ``(record, end_offset)`` per verified record.

        A frame that cannot be accepted ends the walk with one
        ``(_Damage, offset_of_that_frame)`` item, so the offset of every
        item is the size of the verified prefix so far.  Frames are sliced
        out of one ``memoryview``: a record costs a copy of itself, never
        of the rest of the file.  The one reader of the WAL — :meth:`load`
        and :meth:`scrub` cannot disagree about what the same bytes mean.
        """
        self._wal.flush()
        raw = memoryview(self._wal_path.read_bytes())
        offset = 0
        while offset < len(raw):
            try:
                sealed, rest = decode_frame(raw[offset:])
                record = canonical_decode(
                    unseal(bytes(sealed), WAL_RECORD_DOMAIN)
                )
            except IncompleteFrameError:
                yield _Damage.TORN, offset
                return
            except (EncodingError, IntegrityError):
                # A mangled header, or a complete frame whose contents fail
                # verification: the seal rules out a torn write, so these
                # bytes were changed after they were written.
                yield _Damage.CORRUPT, offset
                return
            offset = len(raw) - len(rest)
            yield record, offset

    # -- integrity audit ---------------------------------------------------

    def scrub(self) -> dict[str, Any]:
        """Re-verify snapshot generations and every WAL record, read-only.

        Unlike :meth:`load`, nothing is truncated or quarantined — this is
        the observation half of the self-stabilization loop, safe to run on
        a live store or offline via ``python -m repro storage scrub``.
        """
        self.stats.scrub_passes += 1
        report: dict[str, Any] = {
            "clean": True,
            "snapshot_ok": True,
            "records_verified": 0,
            "torn_records": 0,
            "corrupt_records": 0,
            "corrupt_snapshots": 0,
        }
        for path in (self._snapshot_path, self._snapshot_prev_path):
            try:
                raw = path.read_bytes()
            except FileNotFoundError:
                continue
            if not raw:
                continue
            try:
                payload, rest = decode_frame(raw)
                if rest:
                    raise EncodingError("trailing bytes after snapshot frame")
                canonical_decode(unseal(payload, SNAPSHOT_DOMAIN))
            except (EncodingError, IntegrityError):
                report["corrupt_snapshots"] += 1
                report["clean"] = False
                if path == self._snapshot_path:
                    report["snapshot_ok"] = False
        for item, _ in self._walk_wal():
            if isinstance(item, _Damage):
                report[item.value] += 1
                report["clean"] = False
            else:
                report["records_verified"] += 1
        return report

    # -- crash simulation --------------------------------------------------

    def crash(self) -> None:
        """Lose everything not yet fsynced, as a power cut would."""
        self._wal.close()
        with open(self._wal_path, "r+b") as wal:
            wal.truncate(self._synced_size)
        self._wal = open(self._wal_path, "ab")
        self._group_dirty = False
        self.stats.crashes += 1

    def close(self) -> None:
        self._wal.close()
