"""Group commit: one WAL barrier per released reply batch.

The durability rule is *append before releasing any message that reveals
the change*; these tests pin the window that batching the barrier opens:

* a power cut after any append inside one ``handle`` loses the whole
  message cleanly (state before it, no reply), and the client's
  retransmission completes the write;
* a server connection's read callback writes no reply byte before the
  barrier covering its records has returned, and writes all of one
  read's replies at once;
* a handler that raises still leaves everything it appended durable.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core import make_system
from repro.core.config import Variant
from repro.core.messages import ReadRequest, ReadTsRequest
from repro.encoding import FrameDecoder
from repro.net.asyncio_transport import ReplicaServer, _Connection
from repro.net.envelope import encode_envelope
from repro.storage import FileLogStore, MemoryStore

from tests.helpers import DirectDriver, ProtocolKit

VARIANTS = ["base", "optimized", "strong", "fastpath"]
VICTIM = "replica:2"
#: Silenced while the cut write runs, so the quorum needs the victim and
#: only a retransmission can complete the write.
ABSENT = "replica:3"


# -- (1) power cut inside one handle ------------------------------------------


class PowerCut(Exception):
    """The machine lost power before the handler's scope closed."""


class PowerCutStore(FileLogStore):
    """Loses power right after the ``cut_at``-th append of an armed handle."""

    cut_at = None
    seen = 0

    def append(self, record):
        super().append(record)
        self.seen += 1
        if self.seen == self.cut_at:
            self.cut_at = None
            self.crash()
            raise PowerCut


class CuttingDriver(DirectDriver):
    """A :class:`DirectDriver` whose victim replica can lose power.

    ``arm(n, k)`` cuts the victim after the ``k``-th append of the ``n``-th
    message it handles from then on.  ``appends`` records how many records
    each of those messages logged (the dry run reads it to enumerate every
    cut point).
    """

    def __init__(self, client, replicas):
        super().__init__(client, replicas)
        self.armed = None
        self.handled = 0
        self.appends: list[int] = []
        self.cuts = 0

    def arm(self, nth, cut_at):
        self.armed = (nth, cut_at)
        self.handled = 0
        self.appends = []

    def pump(self, sends):
        queue = list(sends)
        while queue:
            send = queue.pop(0)
            if send.dest in self.dropped:
                continue
            replica = self.replicas[send.dest]
            if send.dest != VICTIM:
                reply = replica.handle(self.client.node_id, send.message)
            else:
                reply = self._victim_handle(replica, send.message)
            if reply is not None:
                queue.extend(self.client.deliver(send.dest, reply))

    def _victim_handle(self, replica, message):
        store = replica.store
        store.seen = 0
        if self.armed is not None and self.handled == self.armed[0]:
            store.cut_at = self.armed[1]
        self.handled += 1
        before = replica.state_fingerprint(include_signing_logs=True)
        try:
            reply = replica.handle(self.client.node_id, message)
        except PowerCut:
            # No reply left the replica, and what comes back from disk is
            # the state before the message — not a prefix of its records.
            self.cuts += 1
            reborn = type(replica)(VICTIM, replica.config, store=store)
            reborn.recover()
            assert reborn.state_fingerprint(include_signing_logs=True) == before
            assert store._group_depth == 0
            self.replicas[VICTIM] = reborn
            return None
        store.cut_at = None
        self.appends.append(store.seen)
        return reply


def _cluster(variant, root):
    variant = Variant.coerce(variant)
    config = make_system(f=1, seed=b"group-commit", strong=variant.strong)
    replicas = [
        variant.replica_cls(
            rid,
            config,
            store=(
                MemoryStore()
                if root is None
                else (PowerCutStore if rid == VICTIM else FileLogStore)(
                    root / rid.replace(":", "_")
                )
            ),
        )
        for rid in config.quorums.replica_ids
    ]
    return CuttingDriver(variant.client_cls("client:alice", config), replicas)


def _run(driver, cut=None):
    """Two warm-up writes, the write under test, two writes to converge."""
    for i in range(2):
        assert driver.run_write(("warm", i)).done
    driver.drop(ABSENT)
    driver.arm(*(cut or (-1, None)))
    op = driver.run_write(("cut", 0))
    ticks = 0
    while not op.done:
        driver.tick()  # the client's retransmission reaches the victim again
        ticks += 1
        assert ticks < 10
    driver.restore(ABSENT)
    appends = list(driver.appends)
    driver.armed = None
    for i in range(2):
        assert driver.run_write(("after", i)).done
    return appends, {
        rid: replica.state_fingerprint()
        for rid, replica in driver.replicas.items()
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_power_cut_after_any_append_inside_a_handle(variant, tmp_path):
    _, fault_free = _run(_cluster(variant, None))
    appends, durable = _run(_cluster(variant, tmp_path / "dry"))
    assert durable == fault_free
    logging = [(n, count) for n, count in enumerate(appends) if count]
    assert len(logging) >= 2  # the prepare-side message and the WRITE
    assert max(count for _, count in logging) >= 2  # a real multi-record group
    for nth, count in logging:
        for k in range(1, count + 1):
            driver = _cluster(variant, tmp_path / f"cut-{nth}-{k}")
            _, recovered = _run(driver, cut=(nth, k))
            assert driver.cuts == 1
            assert recovered == fault_free, (nth, k)


# -- (2) no reply byte before its barrier -------------------------------------


class RecordingTransport:
    """Stands in for the connection's transport: notes what was durable at
    each ``write`` and counts the reply frames written."""

    def __init__(self, store, events):
        self.store = store
        self.events = events
        self.replies = 0

    def write(self, data):
        self.replies += len(list(FrameDecoder().feed(data)))
        store = self.store
        store._wal.flush()
        self.events.append(
            (
                "write",
                store._synced_size == store.wal_path.stat().st_size
                and not store._group_dirty
                and store._group_depth == 0,
            )
        )



@pytest.fixture
def fsync_events(monkeypatch):
    events: list[tuple[str, bool]] = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        real_fsync(fd)
        events.append(("fsync", True))

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return events


def _read(server, frames, transport):
    """Deliver ``frames`` to ``server`` as the bytes of one socket read."""

    async def main():
        connection = _Connection(server)
        connection.connection_made(transport)
        connection.data_received(b"".join(frames))

    asyncio.run(main())


@pytest.mark.parametrize("clients", [1, 2])
@pytest.mark.parametrize("frames", [1, 2, 3, 4])
def test_chunk_replies_wait_for_the_barrier(frames, clients, tmp_path, fsync_events):
    config = make_system(f=1, seed=b"chunk-order")
    replica = Variant.BASE.replica_cls(
        "replica:0", config, store=FileLogStore(tmp_path)
    )
    server = ReplicaServer(replica)
    kits = [ProtocolKit(config, f"client:c{i}") for i in range(clients)]
    data = []
    for i in range(frames):
        kit = kits[i % clients]
        if i < clients:  # each client's first frame logs (plist-set, spr)
            ts = replica.pcert.ts.succ(kit.client)
            message = kit.prepare_request(replica.pcert, ts, ("v", i))
        else:
            message = ReadTsRequest(nonce=kit.nonce())
        data.append(encode_envelope(kit.client, message))
    appends_before = replica.store.stats.appends
    del fsync_events[:]

    transport = RecordingTransport(replica.store, fsync_events)
    _read(server, data, transport)

    assert replica.store.stats.appends - appends_before == 2 * min(frames, clients)
    kinds = [kind for kind, _ in fsync_events]
    assert kinds == ["fsync", "write"]
    assert all(durable for _, durable in fsync_events)
    assert transport.replies == frames


def test_chunk_of_reads_issues_no_barrier(tmp_path, fsync_events):
    config = make_system(f=1, seed=b"chunk-reads")
    replica = Variant.BASE.replica_cls(
        "replica:0", config, store=FileLogStore(tmp_path)
    )
    kit = ProtocolKit(config)
    data = [
        encode_envelope(kit.client, ReadRequest(nonce=kit.nonce()))
        for _ in range(3)
    ]
    del fsync_events[:]
    transport = RecordingTransport(replica.store, fsync_events)
    _read(ReplicaServer(replica), data, transport)
    assert [kind for kind, _ in fsync_events] == ["write"]
    assert transport.replies == 3


# -- (3) a raising handler still pays its barrier ----------------------------


def test_handler_that_raises_after_appending_is_synced(tmp_path):
    config = make_system(f=1, seed=b"raise-after-append")
    store = FileLogStore(tmp_path)
    replica = Variant.BASE.replica_cls("replica:0", config, store=store)
    kit = ProtocolKit(config)
    request = kit.prepare_request(
        replica.pcert, replica.pcert.ts.succ(kit.client), ("v", 1)
    )

    def boom(statement):
        raise RuntimeError("signer fell over")

    replica._sign = boom  # runs after plist-set and spr were appended
    with pytest.raises(RuntimeError):
        replica.handle(kit.client, request)

    assert store.stats.appends == 2
    assert store.stats.fsyncs == 1
    store._wal.flush()
    assert store._synced_size == store.wal_path.stat().st_size > 0
    assert store._group_depth == 0
    # The in-memory state moved, so the records must survive a power cut.
    store.crash()
    assert len(store.load()[1]) == 2


# -- the scope itself ----------------------------------------------------------


def test_nested_scopes_commit_once_at_the_outermost_exit(tmp_path):
    store = FileLogStore(tmp_path)
    with store.group():
        store.append(("a",))
        with store.group():
            store.append(("b",))
        assert store.stats.fsyncs == 0
        store.crash()  # nothing was promised yet
        assert store.load() == (None, [])
        store.append(("c",))
    assert store.stats.fsyncs == 1
    store.crash()
    assert store.load() == (None, [("c",)])


def test_snapshot_inside_a_scope_subsumes_the_pending_barrier(tmp_path):
    store = FileLogStore(tmp_path)
    with store.group():
        store.append(("a",))
        store.write_snapshot({"s": 1})
        after_snapshot = store.stats.fsyncs
    assert store.stats.fsyncs == after_snapshot
    assert store.load() == ({"s": 1}, [])


def test_never_policy_flushes_once_per_group(tmp_path):
    store = FileLogStore(tmp_path, fsync="never")
    with store.group():
        store.append(("a",))
        store.append(("b",))
        assert store.wal_path.stat().st_size == 0
    assert store.wal_path.stat().st_size > 0
    assert store.stats.fsyncs == 0
