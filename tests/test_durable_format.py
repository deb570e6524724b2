"""Golden digests of the durable replica format.

A seeded simulator run per variant (plus two budgeted runs) leaves every
replica with a record stream, a compaction snapshot, a live
``snapshot_wire()`` and two state fingerprints.  Their SHA-256 digests are
pinned here: a change to how the durable state is declared, logged,
snapshotted or fingerprinted must leave all of them byte-identical, which
is what "existing WAL files and snapshots load unchanged" means in a form a
test can check.  A new record tag, a reordered payload or a renamed
snapshot key changes a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ClientStateBudget, LinkProfile
from repro.encoding import canonical_encode
from repro.sim import build_cluster
from repro.sim.workload import write_script
from repro.storage import MemoryStore

#: Three concurrent writers, four writes each.
SCRIPTS = {name: write_script(name, 4) for name in ("alice", "bob", "carol")}

#: A snapshot interval small enough that every replica compacts mid-run, so
#: both the snapshot and the record tail after it are pinned.
SNAPSHOT_INTERVAL = 16

#: ``run -> (store, snapshot_wire, fingerprint, fingerprint with logs)``.
GOLDEN = {
    "base": (
        "de1526f185779aabc5cf325aec4114893b2426dbb31bcb9dafee72c4c5e0b4d0",
        "7bf58d90568e0ced3b3c22bb743b4732e6f58a39d17eb1d66ab47a9b1fb7c13d",
        "b0ceddb39ba915d2932095e4c21d3d07517571b54ab9f11ee9e544921c6b80a5",
        "412ba3fdc679df282e3a81f204f1fc15e27af1efae0d27079bf123e82ce6c2c8",
    ),
    "optimized": (
        "b1ca0f019c3d61e51b09134053f3d35c16a133ddd363bce9d3cf0b2ea547a4f5",
        "4e999f3c9c887b77914ed6e0a3d1e87e699bfdfd5f00e702b96e5584a1f223e4",
        "1ff5d3bcb918ed32c3a50cf92536783e69cfb9e56974419dbe4c49c6e3e163ad",
        "1a368afd5509087311763fe4417163bb882b00a4c8022edf8c32465ba22dcf7e",
    ),
    "strong": (
        "911c4846d54bc377f8ff89096236fb28113e3d1c92af6ff41bb0774b7d662986",
        "a769ee87616317970b0f16d332fbf1075a885692736a95aa41b774726a355176",
        "b0ceddb39ba915d2932095e4c21d3d07517571b54ab9f11ee9e544921c6b80a5",
        "86824f1ff8285513b62bef826ada6f18112aea3720a99a810b38ac389cf01871",
    ),
    "fastpath": (
        "b2b25bb8f8694f86762d58379fc6c338aabf9c1eb367012eda9d6c3d91830684",
        "5ffccc709254ec713075bb4cdcaec1921541fb43cd4eb2175c53ca121c204b1e",
        "feb79f5a35abddab56e374150836a6d72ab24813d5a6785d152317c5b109be6e",
        "5d5324f7b1a693c0f560dc1f740e4d8536bb5eba5a6da6c51ab08a8556b0abcb",
    ),
    "base-budgeted": (
        "90301bc9092570595165f85f553ee999c7fbd2867614323e13d85a3cccdca142",
        "7bf58d90568e0ced3b3c22bb743b4732e6f58a39d17eb1d66ab47a9b1fb7c13d",
        "b0ceddb39ba915d2932095e4c21d3d07517571b54ab9f11ee9e544921c6b80a5",
        "412ba3fdc679df282e3a81f204f1fc15e27af1efae0d27079bf123e82ce6c2c8",
    ),
    "fastpath-budgeted": (
        "2b0b8d0a3b489191be5cf5d0e79a000a957596760f2e3765c914389e3a0a880a",
        "5ffccc709254ec713075bb4cdcaec1921541fb43cd4eb2175c53ca121c204b1e",
        "feb79f5a35abddab56e374150836a6d72ab24813d5a6785d152317c5b109be6e",
        "5d5324f7b1a693c0f560dc1f740e4d8536bb5eba5a6da6c51ab08a8556b0abcb",
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(canonical_encode(value)).hexdigest()


def durable_digests(run: str) -> tuple[str, str, str, str]:
    variant, _, budgeted = run.partition("-")
    cluster = build_cluster(
        f=1,
        variant=variant,
        seed=2026,
        profile=LinkProfile(min_delay=0.001, max_delay=0.02),
        store_factory=lambda rid: MemoryStore(snapshot_interval=SNAPSHOT_INTERVAL),
        client_state_budget=ClientStateBudget(hot_entries=1) if budgeted else None,
    )
    cluster.run_scripts(SCRIPTS, max_time=120)
    cluster.settle(2.0)
    replicas = sorted(cluster.replicas.items())
    stores, snapshots, plain, with_logs = [], [], [], []
    for rid, replica in replicas:
        snapshot, records = replica.store.load()
        stores.append((rid, snapshot, tuple(records)))
        snapshots.append((rid, replica.snapshot_wire()))
        plain.append((rid, replica.state_fingerprint()))
        with_logs.append((rid, replica.state_fingerprint(include_signing_logs=True)))
    return (
        _digest(tuple(stores)),
        _digest(tuple(snapshots)),
        _digest(tuple(plain)),
        _digest(tuple(with_logs)),
    )


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_durable_format_is_byte_identical(run):
    assert durable_digests(run) == GOLDEN[run]


@pytest.mark.parametrize("variant", ["base", "fastpath"])
def test_pinned_stores_recover_to_the_live_state(variant):
    cluster = build_cluster(
        f=1,
        variant=variant,
        seed=2026,
        store_factory=lambda rid: MemoryStore(snapshot_interval=SNAPSHOT_INTERVAL),
    )
    cluster.run_scripts(SCRIPTS, max_time=120)
    for replica in cluster.replicas.values():
        live = replica.state_fingerprint(include_signing_logs=True)
        replica.recover()
        assert replica.state_fingerprint(include_signing_logs=True) == live


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(name, durable_digests(name))
