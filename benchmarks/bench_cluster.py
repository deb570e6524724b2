"""E22: multi-process replica cluster — worker scaling.

The deployment API's headline numbers: wall-clock write throughput of the
``process`` transport as the 3f+1 replicas spread across {1, 2, 4} worker
processes with a pipelined client, against the single-process sequential
baseline (the pre-``deploy()`` status quo: one worker hosting every replica,
one operation in flight).

Worker scaling is hardware-bound: on a multi-core host the four-worker
fleet clears the 2.5x acceptance floor, while a single-core container can
only overlap fsync latency, so there the floor is reported but not
asserted.  Results are recorded under ``e22_cluster_scaling`` in
``BENCH_throughput.json``.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

import pytest

from repro.analysis import format_table
from repro.cluster import DeploymentSpec, deploy

from benchmarks.conftest import run_once

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import bench_record  # noqa: E402

pytestmark = pytest.mark.slow

OPS = 40
SCALING_FLOOR = 2.5


def _throughput(spec: DeploymentSpec, ops: int = OPS) -> float:
    """Committed writes per second through one deployment handle."""
    with deploy(spec) as dep:
        dep.write("warm")  # establish certificates outside the timed window
        start = time.perf_counter()
        records = dep.run_script([("write", f"bench{i}") for i in range(ops)])
        elapsed = time.perf_counter() - start
        assert all(record.result is not None for record in records)
    return ops / elapsed


def test_cluster_scaling(benchmark):
    def experiment():
        baseline = _throughput(
            DeploymentSpec(transport="process", workers=1, pipeline=1, seed=11)
        )
        scaling = {
            workers: _throughput(
                DeploymentSpec(
                    transport="process", workers=workers, pipeline=4, seed=11
                )
            )
            for workers in (1, 2, 4)
        }

        cpus = os.cpu_count() or 1
        print()
        print(
            format_table(
                ["configuration", "writes/s", "vs sequential"],
                [["1 worker, sequential", baseline, 1.0]]
                + [
                    [f"{workers} worker(s), pipeline=4", rate, rate / baseline]
                    for workers, rate in sorted(scaling.items())
                ],
                title=f"E22 process-cluster write throughput "
                f"(f=1, {OPS} ops, {cpus} CPU(s))",
            )
        )
        return {
            "cpus": cpus,
            "baseline_writes_per_s": baseline,
            "scaling": {str(w): rate for w, rate in scaling.items()},
            "speedup_4_workers": scaling[4] / baseline,
        }

    results = run_once(benchmark, experiment)
    bench_record.record("e22_cluster_scaling", results)

    # Worker scaling needs actual cores; a single-CPU container can only
    # overlap fsync latency, so the floor is recorded but not asserted.
    assert results["speedup_4_workers"] > 1.0
    if results["cpus"] >= 4:
        assert results["speedup_4_workers"] >= SCALING_FLOOR
