"""One run of one workload in this process: the form ``BENCHMARK.json`` names.

``--trace 0`` fills ``--seconds`` with fixed-size repetitions, a short
untimed one first, and reports the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced repetition of the same inputs and reports the
per-layer metrics.  Either way the last line printed is the result object.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from perfbench import api, stats
from perfbench.metrics import END_TO_END, PER_LAYER, RATES, REPORT, SCALE
from perfbench.trace import Tracer, layer_self_seconds, total_seconds
from perfbench.workloads import WORKLOADS, Rep, Workload

#: Set-ups per untraced run: where fewer repetitions fit, set-up-only
#: cycles (deploy, first operation, tear down) make up the number.
MIN_SETUPS = 5
#: The first repetition in a process runs up to 10% slow (cold code paths,
#: cold files), so an untimed one of this share of the size goes first.
WARM_UP_SHARE = 0.25
#: Memory grows by about 1 MB a repetition (the program's process-wide
#: tables), and the clock decides how many there are, so the peak is read
#: after this many: the same work on a machine of any speed.
RSS_REPS = 4
#: A repetition starts only if one this much longer than the longest so
#: far would still end inside ``--seconds``.
REP_MARGIN = 1.1
SMOKE_DIVISOR = 20
WORK_DIR = api.ROOT / ".perfbench_work"
#: A run prints its detail object on a line with this prefix, before the result.
DETAIL_PREFIX = "perfbench-detail: "


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0  # Linux reports KiB


def _pooled(reps: list[Rep], series: str) -> list[float]:
    return [ms for rep in reps for ms in rep.samples.get(series, ())]


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    trace_out: Optional[str] = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns ``(result, detail)``."""
    workload: Workload = WORKLOADS[name](SCALE / SMOKE_DIVISOR if smoke else SCALE)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    try:
        if trace:
            return _run_traced(workload, seed, workdir, trace_out)
        return _run_timed(workload, seed, seconds, workdir, smoke)
    finally:
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _result(reps: list[Rep], metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    errors = [error for rep in reps for error in rep.errors]
    return {
        "correct": not errors and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }


# -- untraced: the end-to-end metrics ---------------------------------------------


def _import_seconds() -> list[float]:
    """Seconds a fresh interpreter takes to import ``repro``: this
    process's own import and as many more as make ``MIN_SETUPS``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    )
    samples = [api.IMPORT_S]
    for _ in range(MIN_SETUPS - 1):
        done = subprocess.run(
            [sys.executable, "-c", code, str(api.ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout))
    return samples


def _run_timed(
    workload: Workload, seed: int, seconds: float, workdir: Path, smoke: bool
) -> tuple[dict[str, Any], dict[str, Any]]:
    # The import probes come last (see below); each costs an interpreter
    # start on top of the import it times.
    deadline = time.perf_counter() + seconds - (MIN_SETUPS - 1) * 1.5 * api.IMPORT_S
    checked: list[Rep] = []
    if not smoke:
        short = type(workload)(workload.scale * WARM_UP_SHARE)
        checked.append(short.run_rep(seed * 1000 + 999, workdir))
    # Every repetition is the same fixed work; the clock only decides how
    # many there are, so a run ends on time on a slower machine too.
    reps: list[Rep] = []
    longest = 0.0
    peak_rss_mb = 0.0
    while not reps or (not smoke and time.perf_counter() + REP_MARGIN * longest <= deadline):
        t0 = time.perf_counter()
        reps.append(workload.run_rep(seed * 1000 + len(reps), workdir))
        longest = max(longest, time.perf_counter() - t0)
        if len(reps) == RSS_REPS:
            peak_rss_mb = _peak_rss_mb()
    checked += reps
    setups = [rep.setup_s for rep in reps]
    if not smoke:
        setups += [
            workload.run_rep(seed * 1000 + 500 + i, workdir, load=False).setup_s
            for i in range(MIN_SETUPS - len(setups))
        ]

    # Read before the probes: a reaped probe would count as a worker.
    peak_rss_mb = peak_rss_mb or _peak_rss_mb()
    imports = [api.IMPORT_S] if smoke else _import_seconds()

    rates = [(rep.ops - rep.failed) / rep.wall_s for rep in reps if rep.wall_s > 0]
    attempted = sum(rep.ops for rep in reps)
    report: dict[str, Any] = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": sum(rep.failed for rep in reps) / max(1, attempted),
    }
    series = {name: _pooled(reps, name) for name in {m.series for m in REPORT if m.series}}
    for metric in REPORT:
        if series.get(metric.series):
            report[metric.name] = stats.percentile(series[metric.series], metric.quantile)
    result = _result(checked, {m.name: (report.get(m.name, 0.0), m.unit) for m in END_TO_END})
    if "arrivals_at_top" in reps[0].extra:
        report[f"within_slo_share_at_{RATES[-1]}"] = (
            sum(rep.extra["within_slo_at_top"] for rep in reps)
            / max(1, sum(rep.extra["arrivals_at_top"] for rep in reps))
        )
        report["overloaded_steps"] = sum(rep.extra["overloaded_steps"] for rep in reps)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "repetitions": len(reps),
        "setups": len(setups),
        "ops_per_repetition": reps[0].ops,
        "report": report,
        # Raw latencies (ms), so the full set can pool them over its runs.
        "series": {
            name: [round(ms, 4) for ms in samples]
            for name, samples in sorted(series.items()) if samples
        },
        "per_rep": {
            "setup_s": setups,
            "ops_per_s": rates,
            "import_s": imports,
        },
        # Exact on the sim workloads: same seed, same counts, on any machine.
        "counts_per_op": {
            key: value / max(1, reps[0].ops) for key, value in sorted(reps[0].counts.items())
        },
        "errors": [error for rep in checked for error in rep.errors],
    }
    return result, detail


# -- traced: the per-layer metrics ---------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain: Rep, traced: Rep, tracer: Tracer) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; 0 where the layer does no work here."""
    ops = max(1, traced.ops)
    count = traced.counts.get
    extra = traced.extra.get
    own = layer_self_seconds(tracer.spans)
    accounted = sum(own.values())

    def us(seconds: float) -> float:
        return seconds * 1e6 / ops

    late = traced.samples.get("late", ())
    return {
        "encoding.self_us_per_op": us(own.get("encoding", 0.0)),
        "encoding.calls_per_op": count("encoding.calls", 0) / ops,
        "encoding.bytes_per_op": count("encoding.bytes", 0) / ops,
        "encoding.intern_hit_rate": _ratio(
            count("intern.hits", 0), count("intern.hits", 0) + count("intern.misses", 0)),
        "encoding.wire_cache_hit_rate": _ratio(
            count("wire.hits", 0), count("wire.hits", 0) + count("wire.misses", 0)),
        "crypto.self_us_per_op": us(own.get("crypto", 0.0)),
        "crypto.signs_per_op": count("crypto.signs", 0) / ops,
        "crypto.verifies_per_op": count("crypto.verifies", 0) / ops,
        "crypto.macs_computed_per_op": count("crypto.macs_computed", 0) / ops,
        "crypto.macs_checked_per_op": count("crypto.macs_checked", 0) / ops,
        "crypto.key_derivations_per_op": count("crypto.key_derivations", 0) / ops,
        "core.verification.self_us_per_op": us(own.get("core.verification", 0.0)),
        "core.verification.passes_per_op": count("verify.passes", 0) / ops,
        "core.verification.memo_hit_rate": _ratio(
            count("verify.hits", 0), count("verify.checks", 0)),
        "core.verification.batch_size": _ratio(
            count("verify.batched", 0), count("verify.batch_calls", 0)),
        "core.replica.self_us_per_op": us(own.get("core.replica", 0.0)),
        "core.replica.handled_per_op": count("replica.handled", 0) / ops,
        "core.replica.discard_share": _ratio(
            count("replica.discards", 0), count("replica.handled", 0)),
        "core.replica.foreground_signs_per_op": count("replica.foreground_signs", 0) / ops,
        "core.client.self_us_per_op": us(own.get("core.client", 0.0)),
        "core.client.phases_per_op": _ratio(
            tracer.counts["client.phases"], tracer.counts["client.completed"]),
        "core.client.retransmits_per_op": tracer.counts["client.retransmits"] / ops,
        "core.client.fast_path_rate": _ratio(
            tracer.counts["client.fast_path_writes"], tracer.counts["client.writes"]),
        "storage.self_us_per_op": us(own.get("storage", 0.0)),
        "storage.fsync_us_per_op": us(total_seconds(tracer.spans, "storage", "fsync")),
        "storage.snapshot_us_per_op": us(
            total_seconds(tracer.spans, "storage", "write_snapshot")),
        "storage.appends_per_op": count("storage.appends", 0) / ops,
        "storage.fsyncs_per_op": count("storage.fsyncs", 0) / ops,
        "storage.bytes_per_op": count("storage.appended_bytes", 0) / ops,
        "storage.snapshots_per_kop": count("storage.snapshots", 0) * 1000.0 / ops,
        "storage.disk_bytes_per_op": _ratio(extra("disk_bytes", 0), extra("writes", 0)),
        "net.connect_us_per_op": us(
            total_seconds(tracer.async_spans, "net", "connect")
            + total_seconds(tracer.async_spans, "net", "close")),
        "net.send_us_per_op": us(total_seconds(tracer.async_spans, "net", "send")),
        "net.frames_per_op": tracer.counts["net.frames"] / ops,
        "net.wire_bytes_per_op": tracer.counts["net.wire_bytes"] / ops,
        "net.residual_us_per_op": us(max(0.0, traced.wall_s - accounted)),
        "sim.self_us_per_op": us(own.get("sim", 0.0)),
        "sim.events_per_op": count("sim.events", 0) / ops,
        "sim.messages_per_op": count("sim.messages", 0) / ops,
        "sim.bytes_per_op": count("sim.bytes", 0) / ops,
        "load.generator_late_ms_p95": stats.percentile(late, 0.95) if late else 0.0,
        "load.slot_waits": extra("slot_waits", 0),
        "load.drain_s": extra("drain_s", 0.0),
        "load.max_rate_under_slo": extra("max_rate_under_slo", 0.0),
        "cluster.spawn_s": extra("spawn_s", 0.0),
        "cluster.worker_cpu_ms_per_op": extra("worker_cpu_s", 0.0) * 1e3 / ops,
        "cluster.client_cpu_ms_per_op": extra("client_cpu_s", 0.0) * 1e3 / ops,
        "trace.overhead_ratio": _ratio(
            _ratio(traced.wall_s, traced.ops), _ratio(plain.wall_s, plain.ops)),
        "trace.accounted_share": _ratio(accounted, traced.wall_s),
    }


def _run_traced(
    workload: Workload, seed: int, workdir: Path, trace_out: Optional[str]
) -> tuple[dict[str, Any], dict[str, Any]]:
    rep_seed = seed * 1000
    plain = workload.run_rep(rep_seed, workdir)
    tracer = Tracer(api.TRACE_TARGETS)
    traced = workload.run_rep(rep_seed, workdir, tracer=tracer)
    values = layer_metrics(plain, traced, tracer)
    if trace_out:
        tracer.write_jsonl(trace_out)
    result = _result(
        [plain, traced], {m.name: (values[m.name], m.unit) for m in PER_LAYER}
    )
    detail = {
        "workload": workload.name,
        "seed": seed,
        "spans": len(tracer.spans),
        "async_spans": len(tracer.async_spans),
        "errors": plain.errors + traced.errors,
    }
    return result, detail
