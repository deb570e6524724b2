"""E16 — Durability cost of the write-ahead log (`bench_persistence.py`).

The pluggable storage engine lets the same protocol run on a volatile
:class:`~repro.storage.MemoryStore` or a journaling
:class:`~repro.storage.FileLogStore`.  This experiment measures what the
journal costs: wall-clock time for a fixed write workload on each backend
(fsync="always" vs fsync="never" vs memory), plus the deterministic storage
counters (log appends, fsyncs, bytes) the metrics collector aggregates.

The analytical model in :mod:`repro.analysis.costs` predicts the per-write
log-record count, which the measured appends-per-operation must match, and
the per-write barrier count under group commit, which the measured fsyncs
must equal exactly, for every variant.

Marked ``slow``: real fsyncs on real files, excluded from tier-1 runs.
"""

from __future__ import annotations

import pathlib
import sys
import time

import pytest

from repro.analysis import format_table
from repro.analysis.costs import CostModel
from repro.core.quorum import QuorumSystem
from repro.sim import ClusterOptions, build_cluster, write_script
from repro.storage import FileLogStore

from benchmarks.conftest import run_once

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import bench_record  # noqa: E402

pytestmark = pytest.mark.slow

WRITES = 20


def _arm(
    name: str,
    tmp_path,
    *,
    fsync: str | None,
    variant: str = "base",
    seed: int = 1600,
) -> dict:
    """Run the fixed workload on one storage backend; return its numbers."""
    if fsync is None:
        options = ClusterOptions(seed=seed, variant=variant)
    else:
        root = tmp_path / name
        options = ClusterOptions(
            seed=seed,
            variant=variant,
            store_factory=lambda rid: FileLogStore(root / rid, fsync=fsync),
        )
    started = time.perf_counter()
    cluster = build_cluster(options)
    cluster.run_scripts({"w": write_script("client:w", WRITES)}, max_time=600)
    elapsed = time.perf_counter() - started
    totals = cluster.metrics.storage_totals()
    ops = cluster.metrics.operations
    for replica in cluster.replicas.values():
        replica.store.close()
    return {
        "ops": ops,
        "wall_seconds": elapsed,
        "ops_per_wall_second": ops / elapsed,
        "log_appends": totals.appends,
        "fsyncs": totals.fsyncs,
        "bytes_written": totals.appended_bytes,
        "appends_per_op": cluster.metrics.log_appends_per_op(),
        "fsyncs_per_op": cluster.metrics.fsyncs_per_op(),
    }


def test_e16_durability_cost(benchmark, tmp_path):
    def experiment():
        arms = {
            "memory": _arm("memory", tmp_path, fsync=None),
            "wal_fsync": _arm("wal-fsync", tmp_path, fsync="always"),
            "wal_only": _arm("wal-nofsync", tmp_path, fsync="never"),
        }
        rows = [
            [
                name,
                arm["ops"],
                round(arm["wall_seconds"], 3),
                arm["log_appends"],
                arm["fsyncs"],
                arm["bytes_written"],
            ]
            for name, arm in arms.items()
        ]
        print()
        print(
            format_table(
                ["backend", "ops", "wall s", "appends", "fsyncs", "bytes"],
                rows,
                title="E16: durability cost, volatile vs write-ahead log",
            )
        )
        return arms

    arms = run_once(benchmark, experiment)

    # Same workload on every backend.
    assert len({arm["ops"] for arm in arms.values()}) == 1

    # The journaling discipline is backend-independent: every backend sees
    # the same logical append stream.  Only the volatile default writes no
    # actual bytes and never syncs.
    assert (
        arms["memory"]["log_appends"]
        == arms["wal_fsync"]["log_appends"]
        == arms["wal_only"]["log_appends"]
    )
    assert arms["memory"]["bytes_written"] == 0
    assert arms["memory"]["fsyncs"] == 0
    assert arms["wal_fsync"]["bytes_written"] > 0
    assert arms["wal_only"]["fsyncs"] == 0
    assert arms["wal_fsync"]["fsyncs"] > 0

    # Measured appends per write match the §3.3 analytical model.  Each
    # replica journals every write, so the cluster-wide rate is n times the
    # per-replica model (the denominator counts client operations).
    model = CostModel(quorums=QuorumSystem.bft_bc(f=1))
    predicted = model.write_log_records("base") * model.quorums.n
    assert arms["wal_fsync"]["appends_per_op"] == pytest.approx(
        predicted, rel=0.15
    ), (arms["wal_fsync"]["appends_per_op"], predicted)
    assert (
        arms["wal_fsync"]["fsyncs_per_op"]
        == model.fsyncs_per_write(fsync="always") * model.quorums.n
    )

    payload = {
        name: {k: v for k, v in arm.items()}
        for name, arm in arms.items()
    }
    payload["fsync_slowdown"] = (
        arms["memory"]["ops_per_wall_second"]
        / arms["wal_fsync"]["ops_per_wall_second"]
    )
    bench_record.record("e16_durability_cost", payload)


@pytest.mark.parametrize("variant", ["base", "optimized", "strong", "fastpath"])
def test_e16_one_barrier_per_logging_message(variant, tmp_path):
    """Group commit, exact: two of a write's messages log at each replica,
    so a write costs ``2n`` barriers however many records it appends (6 per
    replica, 8 on the fast path).  A ``strong`` replica additionally logs
    its vouch for the genesis timestamp, once in its lifetime."""
    arm = _arm("wal-fsync", tmp_path, fsync="always", variant=variant)
    model = CostModel(quorums=QuorumSystem.bft_bc(f=1))
    one_off = 1 if variant == "strong" else 0
    assert arm["fsyncs"] == model.quorums.n * (
        WRITES * model.fsyncs_per_write(fsync="always") + one_off
    )
    assert arm["log_appends"] > 2 * arm["fsyncs"]
