"""The benchmark's reads of the program resolve.

``perfbench`` reads counters and attributes of ``repro`` by name: its
traced rep reads every counter ``perfbench/workloads.py`` collects and
patches every entry of ``perfbench/api.py``'s ``TRACE_TARGETS``.  A deletion
under ``src/repro`` that removes one of them fails every gated benchmark
run, so one small traced run guards them here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--workload", "sim-base-write"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
