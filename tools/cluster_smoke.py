#!/usr/bin/env python3
"""End-to-end smoke of the process cluster: load, kill -9, recover, agree.

Stands up a 3-worker process cluster (4 replicas for f=1, so one worker
hosts two), drives a pipelined workload of 200 operations through the
deployment handle, SIGKILLs one worker mid-run (the supervisor restarts it
on its data directory and original ports; its replicas recover Figure-2
state from snapshot + WAL), finishes the workload, and asserts:

* every operation committed (the kill cost retransmissions, not failures);
* the final read returns the last flush write;
* after teardown, every replica's *offline-recovered* durable state
  fingerprint is identical — the crashed worker's journal converged with
  the survivors'.

A second stage then corrupts a different replica's WAL on disk (one byte
flipped inside a sealed record payload) and SIGKILLs its worker: the
restarted worker detects the bad seal during recovery, quarantines the
WAL tail, and its stabilization loop rebuilds the state from the peers
named in ``cluster.json`` — evidenced by the quarantine artifact plus the
repair-written snapshot, and by the same bit-identical offline
fingerprints at teardown.

Run:  python tools/cluster_smoke.py [--ops 200] [--data-dir DIR]
Exits 0 on success, 1 on any violated assertion.  The slow-marked tier-1
test ``tests/test_cluster.py::TestClusterSmoke`` runs this in-process.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import DeploymentSpec, ProcessDeployment  # noqa: E402


def run_smoke(
    *,
    ops: int = 200,
    workers: int = 3,
    pipeline: int = 4,
    data_dir: str | None = None,
    kill_node: str = "replica:1",
    corrupt_node: str = "replica:2",
    stabilize_timeout: float = 30.0,
    verbose: bool = True,
) -> dict:
    """Run the campaign; returns a result dict (raises AssertionError on bugs)."""

    def say(message: str) -> None:
        if verbose:
            print(message, flush=True)

    spec = DeploymentSpec(
        transport="process",
        workers=workers,
        pipeline=pipeline,
        data_dir=data_dir,
        seed=7,
    )
    half = [("write", f"smoke{i}") for i in range(ops // 2)]
    rest = [("write", f"smoke{i}") for i in range(ops // 2, ops - 2)]
    started = time.monotonic()
    with ProcessDeployment(spec, auto_restart=True) as dep:
        say(f"cluster up: {len(dep.addrs)} replicas on {workers} workers")
        first = dep.run_script(half)
        assert all(record.result is not None for record in first)
        victim = dep.cluster.worker_for(kill_node)
        say(f"kill -9 worker {victim.index} (hosts {list(victim.node_ids)})")
        dep.cluster.kill(kill_node)
        second = dep.run_script(rest)
        assert all(record.result is not None for record in second)
        # The workload outruns the supervisor: 98 local writes finish in
        # milliseconds while crash detection + respawn takes ~1s.  Wait for
        # the victim to come back so the flush certificates below actually
        # reach its recovered replica.
        deadline = time.monotonic() + 30
        while not (victim.restarts >= 1 and victim.alive):
            assert time.monotonic() < deadline, "victim never restarted"
            time.sleep(0.05)
        # Two sequential flush writes converge write_ts and clear every
        # losing prepare-list entry (see tests/test_pipeline_property.py).
        # The first also GCs the stale prepare-list entries the victim
        # journalled before dying.
        dep.write("smoke-flush-1")
        final = "smoke-flush-2"
        flush_ts = dep.write(final)
        read = dep.read()
        assert read == final, f"read {read!r} != last write {final!r}"
        restarts = sum(worker.restarts for worker in dep.cluster.workers)
        assert restarts >= 1, "the supervisor never restarted the victim"
        say(
            f"{ops} ops committed through the kill; "
            f"{restarts} restart(s); final ts {flush_ts}"
        )

        # -- stage 2: state corruption, quarantine, rebuild from quorum --
        from repro.cluster.process import replica_data_dir
        from repro.encoding import decode_frame

        cvictim = dep.cluster.worker_for(corrupt_node)
        cdir = Path(
            replica_data_dir(cvictim.data_dir, cvictim.node_ids, corrupt_node)
        )
        wal = cdir / "wal.bin"
        if not wal.read_bytes():
            # A snapshot compaction just emptied the journal; one more
            # write gives every replica a record to corrupt.
            dep.write("smoke-journal")
            time.sleep(0.5)
        raw = wal.read_bytes()
        assert raw, f"{corrupt_node} journalled nothing to corrupt"
        # A periodic snapshot may already exist, so "repaired" below means
        # the snapshot the repair installs *replaced* what was there.
        snapshot = cdir / "snapshot.bin"
        stale = snapshot.read_bytes() if snapshot.exists() else None
        # Flip one byte in the middle of the first record's *sealed
        # payload* — guaranteed to fail the integrity tag (a flip in a
        # frame header could masquerade as a torn tail instead).
        sealed, rest = decode_frame(raw)
        header = len(raw) - len(rest) - len(sealed)
        offset = header + len(sealed) // 2
        with open(wal, "r+b") as fh:
            fh.seek(offset)
            original = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([original[0] ^ 0x80]))
        say(
            f"flipped WAL byte {offset} of {corrupt_node} "
            f"({cdir}); kill -9 worker {cvictim.index}"
        )
        crestarts = cvictim.restarts
        dep.cluster.kill(corrupt_node)
        deadline = time.monotonic() + stabilize_timeout
        while not (cvictim.restarts > crestarts and cvictim.alive):
            assert time.monotonic() < deadline, "corrupt victim never restarted"
            time.sleep(0.05)
        # Recovery quarantines the sealed-but-mangled record and everything
        # after it; the worker's stabilization loop then pulls replacement
        # state from the peers in cluster.json.  Both steps leave durable
        # evidence: the quarantine artifact and the repair-written snapshot.
        while True:
            quarantined = list(cdir.glob("wal.quarantine.*.bin"))
            repaired = snapshot.exists() and snapshot.read_bytes() != stale
            if quarantined and repaired:
                break
            assert time.monotonic() < deadline, (
                f"stabilization incomplete: quarantine={bool(quarantined)} "
                f"repaired={repaired}"
            )
            time.sleep(0.2)
        say(
            f"{corrupt_node} quarantined its WAL tail and rebuilt from "
            f"peers ({quarantined[0].name})"
        )
        # Converge once more so the repaired replica also holds the final
        # writes, then check agreement offline.
        dep.write("smoke-flush-3")
        final = "smoke-flush-4"
        flush_ts = dep.write(final)
        read = dep.read()
        assert read == final, f"read {read!r} != last write {final!r}"
        restarts = sum(worker.restarts for worker in dep.cluster.workers)

        # The flush completed with 2f+1 replies; give the straggler's last
        # WRITE frame a beat to land before tearing the fleet down.
        time.sleep(0.5)
        prints = dep.fingerprints()  # stops the fleet, recovers offline
    distinct = len(set(prints.values()))
    assert distinct == 1, f"fingerprints diverged across {distinct} states"
    elapsed = time.monotonic() - started
    say(f"all {len(prints)} replicas agree after recovery ({elapsed:.1f}s)")
    return {
        "ops": ops,
        "restarts": restarts,
        "final_ts": flush_ts,
        "fingerprint": next(iter(prints.values())).hex(),
        "elapsed": elapsed,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--pipeline", type=int, default=4)
    parser.add_argument("--data-dir", default=None)
    args = parser.parse_args(argv)
    try:
        run_smoke(
            ops=args.ops,
            workers=args.workers,
            pipeline=args.pipeline,
            data_dir=args.data_dir,
        )
    except AssertionError as exc:
        print(f"SMOKE FAILED: {exc}", file=sys.stderr)
        return 1
    print("cluster smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
