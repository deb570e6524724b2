"""Every metric perfbench reports: name, unit, direction, bound, and what it
is expected to move.  ``BENCHMARK.json`` repeats the first and last tables;
``tests/test_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: Operation counts of the issue's sizing, multiplied by this one factor so
#: that several repetitions (and so several set-ups) fit in one timed run.
SCALE = 0.5
#: What ``--seconds`` is in ``BENCHMARK.json``.
RUN_SECONDS = 30
#: The workloads ``BENCHMARK.json`` names.  Its driver allows 92 runs of
#: 30 s or 136 of 15 s, and accepts a metric only if ten runs of one commit
#: spread by less than its bound.  The other two, ``tcp-durable-write`` and
#: ``tcp-open-loop``, wait on a replica's fsync a third of the time or more,
#: and the disk under this guest drifts by a third within the hour, so
#: they are in the full set and ``compare`` only.
GATED_WORKLOADS = (
    "sim-base-write", "sim-fastpath-write", "tcp-read-mostly", "process-write",
)
#: Open-loop arrival rates (1/s); constants since the first sizing.
RATES = (40, 80, 120)
#: An open-loop arrival is good when answered within this of its due time.
SLO_MS = 50.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    #: ``rel``: share of the baseline median; ``abs``: in the metric's unit.
    bound_kind: str = "rel"
    note: str = ""
    #: For a latency: the sample series and the quantile of it this is.
    series: str = ""
    quantile: float = 0.0


#: The gated metrics of ``BENCHMARK.json``.  A single run reports all of
#: them for whichever workload it ran, so each is defined on every workload.
#: The wall-clock bounds are this container's, not the issue's proposed
#: 0.10: ten identical 30 s runs minutes apart spread by 2-7% on the three
#: single-process gated workloads and 8-12% on ``process-write`` (the
#: machine itself drifts between runs; no statistic taken inside a run
#: removes that), and a bound has to be about three times the spread it is
#: read against.  An upper quartile spreads by 7-11%, too
#: wide for any bound the contract allows, so the tails are ``REPORT``'s.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, note=(
        "a fresh interpreter's import of repro (median of five), plus "
        "deploy/connect/spawn up to the first committed warm-up operation "
        "(median over the run's set-ups)")),
    Metric("ops_per_s", "1/s", "higher", 0.25, note=(
        "completed operations per wall second of the timed section; "
        "median over the run's repetitions")),
    Metric("op_p50_ms", "ms", "lower", 0.25, series="op", quantile=0.5, note=(
        "median time a caller waits per operation: per call where the "
        "API returns per operation, writes from their due time on the "
        "open loop, and script time divided by script length on the "
        "script-driven workloads (sim-*, process-write)")),
    Metric("peak_rss_mb", "MB", "lower", 0.10, note=(
        "ru_maxrss after the run's first four repetitions, plus workers "
        "for process-write")),
)

#: The issue's thirteen end-to-end names, plus the two ``op`` latencies.
#: The full-set report prints those a workload defines and ``compare``
#: gates them.  Bounds as above; tails wider than a quarter between
#: identical runs come out of ``compare`` as ``unresolved``, not ``ok``.
REPORT = (
    END_TO_END[0],
    END_TO_END[1],
    Metric("write_p50_ms", "ms", "lower", 0.25, series="write", quantile=0.5),
    Metric("write_p99_ms", "ms", "lower", 0.25, series="write", quantile=0.99),
    Metric("read_p50_ms", "ms", "lower", 0.25, series="read", quantile=0.5),
    Metric("read_p99_ms", "ms", "lower", 0.25, series="read", quantile=0.99),
    Metric("p50_ms_at_40", "ms", "lower", 0.25, series="at_40", quantile=0.5),
    Metric("p95_ms_at_40", "ms", "lower", 0.25, series="at_40", quantile=0.95),
    Metric("p50_ms_at_80", "ms", "lower", 0.25, series="at_80", quantile=0.5),
    Metric("p95_ms_at_80", "ms", "lower", 0.25, series="at_80", quantile=0.95),
    Metric("within_slo_share_at_120", "share", "higher", 0.05, "abs"),
    Metric("failed_share", "share", "lower", 0.0, "abs"),
    END_TO_END[3],
    END_TO_END[2],
    Metric("op_p75_ms", "ms", "lower", 0.25, series="op", quantile=0.75, note=(
        "the upper quartile of the op_p50_ms samples")),
)

#: ``setup_s`` is bounded by max(0.25 relative, 0.1 s absolute).
SETUP_ABS_BOUND_S = 0.1

#: Layer metrics, from the traced rep.  ``note`` is the prediction written
#: down before measuring: which end-to-end metric it should move, where.
PER_LAYER = (
    Metric("encoding.self_us_per_op", "us", "lower", note="ops_per_s on sim-base-write (largest share); read_p50_ms on tcp-read-mostly; flat: write_p50_ms on tcp-durable-write"),
    Metric("encoding.calls_per_op", "count", "lower", note="as encoding.self_us_per_op"),
    Metric("encoding.bytes_per_op", "B", "lower", note="as encoding.self_us_per_op"),
    Metric("encoding.intern_hit_rate", "share", "higher", note="as encoding.self_us_per_op"),
    Metric("encoding.wire_cache_hit_rate", "share", "higher", note="as encoding.self_us_per_op"),
    Metric("crypto.self_us_per_op", "us", "lower", note="ops_per_s on sim-fastpath-write (MACs); flat on sim-base-write for MAC-only changes"),
    Metric("crypto.signs_per_op", "count", "lower", note="exact: 14 per base write, 0 per fastpath write"),
    Metric("crypto.verifies_per_op", "count", "lower", note="ops_per_s on sim-base-write"),
    Metric("crypto.macs_computed_per_op", "count", "lower", note="exact: 48 per fastpath write; ops_per_s on sim-fastpath-write"),
    Metric("crypto.macs_checked_per_op", "count", "lower", note="ops_per_s on sim-fastpath-write"),
    Metric("crypto.key_derivations_per_op", "count", "lower", note="p50_ms_at_40 on tcp-open-loop only"),
    Metric("core.verification.self_us_per_op", "us", "lower", note="read_p50_ms and ops_per_s on tcp-read-mostly; flat on sim-fastpath-write"),
    Metric("core.verification.passes_per_op", "count", "lower", note="as core.verification.self_us_per_op"),
    Metric("core.verification.memo_hit_rate", "share", "higher", note="as core.verification.self_us_per_op"),
    Metric("core.verification.batch_size", "count", "higher", note="as core.verification.self_us_per_op"),
    Metric("core.replica.self_us_per_op", "us", "lower", note="ops_per_s on both sim workloads"),
    Metric("core.replica.handled_per_op", "count", "lower", note="ops_per_s on both sim workloads"),
    Metric("core.replica.discard_share", "share", "lower", note="wasted work; 0 on every workload here"),
    Metric("core.replica.foreground_signs_per_op", "count", "lower", note="ops_per_s on sim-base-write"),
    Metric("core.client.self_us_per_op", "us", "lower", note="ops_per_s on both sim workloads"),
    Metric("core.client.phases_per_op", "count", "lower", note="exact: 3 base, 2 optimized and fastpath, 1 read"),
    Metric("core.client.retransmits_per_op", "count", "lower", note="0; otherwise that workload's latency is timer-bound"),
    Metric("core.client.fast_path_rate", "share", "higher", note="ops_per_s on sim-fastpath-write and the optimized workloads"),
    Metric("storage.self_us_per_op", "us", "lower", note="write_p50_ms and ops_per_s on tcp-durable-write; ops_per_s on process-write; p95_ms_at_80 and within_slo_share_at_120 on tcp-open-loop, more than proportionally; flat on tcp-read-mostly and both sim workloads"),
    Metric("storage.fsync_us_per_op", "us", "lower", note="as storage.self_us_per_op"),
    Metric("storage.snapshot_us_per_op", "us", "lower", note="write_p99_ms on tcp-durable-write only"),
    Metric("storage.appends_per_op", "count", "lower", note="as storage.self_us_per_op"),
    Metric("storage.fsyncs_per_op", "count", "lower", note="as storage.self_us_per_op"),
    Metric("storage.bytes_per_op", "B", "lower", note="as storage.self_us_per_op"),
    Metric("storage.snapshots_per_kop", "count", "lower", note="write_p99_ms on tcp-durable-write"),
    Metric("storage.disk_bytes_per_op", "B", "lower", note="data-dir size after the run per write; process-write reports it too"),
    Metric("net.connect_us_per_op", "us", "lower", note="p50_ms_at_40 on tcp-open-loop; flat on the closed-loop tcp workloads, which hold their connections"),
    Metric("net.send_us_per_op", "us", "lower", note="read_p50_ms on tcp-read-mostly"),
    Metric("net.frames_per_op", "count", "lower", note="read_p50_ms on tcp-read-mostly"),
    Metric("net.wire_bytes_per_op", "B", "lower", note="read_p50_ms on tcp-read-mostly"),
    Metric("net.residual_us_per_op", "us", "lower", note="wall per op minus every synchronous layer's self time: loop scheduling, socket calls, thread hops; read_p50_ms on tcp-read-mostly"),
    Metric("sim.self_us_per_op", "us", "lower", note="ops_per_s on the two sim workloads only"),
    Metric("sim.events_per_op", "count", "lower", note="ops_per_s on the two sim workloads only"),
    Metric("sim.messages_per_op", "count", "lower", note="ops_per_s on the two sim workloads only"),
    Metric("sim.bytes_per_op", "B", "lower", note="ops_per_s on the two sim workloads only"),
    Metric("load.generator_late_ms_p95", "ms", "lower", note="validity of tcp-open-loop: over 5 ms the step is overloaded"),
    Metric("load.slot_waits", "count", "lower", note="arrivals that found all in-flight slots taken"),
    Metric("load.drain_s", "s", "lower", note="time after the last due time until the last completion, summed over steps"),
    Metric("load.max_rate_under_slo", "1/s", "higher", note="highest step rate with 95% within the limit and no growing backlog; flips near capacity, so not gated"),
    Metric("cluster.spawn_s", "s", "lower", note="setup_s on process-write"),
    Metric("cluster.worker_cpu_ms_per_op", "ms", "lower", note="ops_per_s on process-write"),
    Metric("cluster.client_cpu_ms_per_op", "ms", "lower", note="ops_per_s on process-write"),
    Metric("trace.overhead_ratio", "ratio", "lower", note="traced wall per op over untraced, same inputs"),
    Metric("trace.accounted_share", "share", "higher", note="sum of layer self times over wall; the rest is net.residual"),
)
