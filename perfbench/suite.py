"""The full set: every workload in fresh child processes, interleaved.

Each child is exactly the run ``BENCHMARK.json`` names, so what the full
set prints is what the driver measures, plus the workload-specific names
(``write_p99_ms``, ``p95_ms_at_80`` ...) a single run carries in its detail.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from perfbench import api, stats
from perfbench.metrics import PER_LAYER, REPORT, Metric
from perfbench.runner import DETAIL_PREFIX

CHILD_TIMEOUT_S = 180


def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, dict]:
    command = [
        sys.executable, "-m", "perfbench", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, cwd=api.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited {done.returncode} without a result")
    detail = next(
        (json.loads(l[len(DETAIL_PREFIX):]) for l in lines if l.startswith(DETAIL_PREFIX)), {}
    )
    return json.loads(lines[-1]), detail


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=api.ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _pool(details: list[dict]) -> dict[str, list[float]]:
    """Each latency series of a workload, pooled over its runs."""
    pooled: dict[str, list[float]] = {}
    for detail in details:
        for series, samples in detail["series"].items():
            pooled.setdefault(series, []).extend(samples)
    return pooled


def _collect(
    metric: Metric, details: list[dict], pooled: dict[str, list[float]]
) -> Optional[dict[str, Any]]:
    """One metric over a workload's runs: a rate is the median of the runs;
    a latency is the percentile of the samples pooled over them."""
    values = [d["report"][metric.name] for d in details if metric.name in d["report"]]
    if not values:
        return None
    row: dict[str, Any] = {
        "unit": metric.unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "spread": stats.spread(values),
        "values": values,
    }
    if metric.series:
        samples = pooled[metric.series]
        row["median"] = stats.percentile(samples, metric.quantile)
        row["samples"] = len(samples)
        row["supported"] = stats.samples_beyond(len(samples), metric.quantile) >= stats.MIN_BEYOND
    return row


def _latency(pooled: dict[str, list[float]]) -> dict[str, Any]:
    """Per pooled series: the count, the median, and the highest percentile
    that has at least ten samples beyond it."""
    out: dict[str, Any] = {}
    for series, samples in sorted(pooled.items()):
        level = stats.supported_level(len(samples))
        out[series] = {
            "samples": len(samples),
            "p50_ms": stats.percentile(samples, 0.5),
            "tail": stats.level_name(level) if level else None,
            "tail_ms": stats.percentile(samples, level) if level else None,
        }
    return out


def run(
    names: list[str],
    *,
    seed: int,
    reps: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out: Optional[str],
) -> int:
    started = time.perf_counter()
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    # A B C D E F, A B C ...: slow drift of the machine lands on every
    # workload alike instead of on whichever ran last.
    for rep in range(1 if smoke else reps):
        for name in names:
            runs[name].append(_child(name, seed + rep, seconds, 0, smoke))
            print(f"# {name} run {rep + 1} done", file=sys.stderr)
    traced = {name: _child(name, seed, seconds, 1, smoke) for name in names} if trace else {}

    document: dict[str, Any] = {
        "seed": seed,
        "seconds": seconds,
        "runs_per_workload": len(next(iter(runs.values()))),
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "workloads": {},
    }
    ok = True
    for name in names:
        results = [result for result, _ in runs[name]]
        details = [detail for _, detail in runs[name]]
        pooled = _pool(details)
        entry: dict[str, Any] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "errors": [e for d in details for e in d.get("errors", ())],
            "latency": _latency(pooled),
            "end_to_end": {},
            "counts_per_op": details[0].get("counts_per_op", {}),
        }
        for metric in REPORT:
            row = _collect(metric, details, pooled)
            if row is not None:
                entry["end_to_end"][metric.name] = row
        if name in traced:
            result, detail = traced[name]
            entry["correct"] = entry["correct"] and result["correct"]
            entry["errors"] += detail.get("errors", [])
            entry["per_layer"] = result["metrics"]
        ok = ok and entry["correct"]
        document["workloads"][name] = entry
        _print_workload(name, entry)
    print(f"\n{len(names)} workloads in {time.perf_counter() - started:.0f} s; "
          f"{'all outputs correct' if ok else 'INCORRECT OUTPUTS, see above'}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


def _print_workload(name: str, entry: dict[str, Any]) -> None:
    print(f"\n== {name}: {'correct' if entry['correct'] else 'INCORRECT'}; "
          f"{entry['attempted']} operations attempted, {entry['failed']} failed")
    for error in entry["errors"]:
        print(f"   ! {error}")
    for series, row in entry["latency"].items():
        tail = f"{row['tail']} {row['tail_ms']:.4f} ms" if row["tail"] else "no tail supported"
        print(f"   latency {series:<8}{row['samples']:>7} samples  p50 {row['p50_ms']:.4f} ms  {tail}")
    for metric_name, row in entry["end_to_end"].items():
        line = (f"   {metric_name:<28}{row['median']:>12.4f} {row['unit']:<6}"
                f"runs: min {row['min']:.4f}  max {row['max']:.4f}  n={len(row['values'])}")
        if "samples" in row:
            line += f"; pooled over {row['samples']} samples"
            if not row["supported"]:
                line += " (fewer than ten beyond this percentile)"
        print(line)
    layers = entry.get("per_layer")
    if layers:
        print("   -- per layer, from the traced repetition")
        for metric in PER_LAYER:
            value = layers[metric.name]["value"]
            if value:
                print(f"   {metric.name:<40}{value:>14.4f} {metric.unit}")
        zeros = [m.name for m in PER_LAYER if not layers[m.name]["value"]]
        print(f"   (0 here: {', '.join(zeros)})")
