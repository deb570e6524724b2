"""``--smoke``: all six workloads, traced too, at 1/20 scale in under 30 s."""

import json
import subprocess
import sys
import time

from perfbench import api, runner
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS


def test_smoke_runs_every_workload_correctly(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--seed", "11", "--out", str(out)],
        cwd=api.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, elapsed
    document = json.loads(out.read_text())
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["errors"])
        assert set(entry["per_layer"]) == {m.name for m in PER_LAYER}
        assert {m.name for m in END_TO_END} <= set(entry["end_to_end"])
        assert entry["end_to_end"]["failed_share"]["median"] == 0.0
        layers = entry["per_layer"]
        assert layers["trace.overhead_ratio"]["value"] > 0
        assert 0 < layers["trace.accounted_share"]["value"] <= 1.01
    sim = document["workloads"]["sim-base-write"]
    assert sim["counts_per_op"]["crypto.signs"] == 14.0
    assert sim["per_layer"]["core.client.phases_per_op"]["value"] == 3.0
    fast = document["workloads"]["sim-fastpath-write"]
    assert fast["counts_per_op"]["crypto.macs_computed"] == 48.0
    assert fast["counts_per_op"]["crypto.signs"] == 0.0
    assert not (api.ROOT / ".perfbench_work").exists()


def test_single_run_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "tcp-read-mostly", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=api.ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0


def test_a_timed_run_ends_on_time_with_five_set_ups():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "sim-base-write", "--seed", "5",
         "--seconds", "8", "--trace", "0"],
        cwd=api.ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len(runner.DETAIL_PREFIX):])
    # The untimed short repetition, then full ones while another still fits.
    assert detail["repetitions"] >= 2
    assert elapsed < 8 + 1.5, elapsed
    assert detail["setups"] >= 5 and len(detail["per_rep"]["import_s"]) == 5
    assert json.loads(lines[-1])["correct"] is True
