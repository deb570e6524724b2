"""E15 — the wire fast path: encode-once caching and cross-object batching.

Two measurements, each checked against the closed-form model in
:mod:`repro.analysis.costs`:

* **Encode calls per write** (base variant, f=1, fan-out n=4): with the
  encode-once cache and statement interning off, every frame and every
  signature re-serialises its payload; with them on, a request fanned out
  to n replicas is encoded once and statements are encoded once across
  sign/verify/hash.  The acceptance bar is a >= 2x reduction.

* **Wire frames for an 8-object mixed workload**: with cross-object
  batching, concurrent same-round sends to a replica coalesce into one
  :class:`~repro.core.batching.BatchEnvelope` frame (and replies coalesce
  symmetrically).  The bar is >= 1.5x fewer frames.

Headline numbers land in ``BENCH_throughput.json`` via
:mod:`tools.bench_record`.
"""

from __future__ import annotations

import pathlib
import sys

from repro import build_cluster
from repro.analysis import format_table
from repro.analysis.costs import CostModel
from repro.core import make_system
from repro.core.batching import BatchCoalescer, BatchStats
from repro.core.messages import (
    reset_wire_cache_stats,
    set_wire_cache_enabled,
    wire_cache_stats,
)
from repro.core.multiobject import MultiObjectClient, MultiObjectReplica
from repro.encoding import encode_stats, reset_interning, set_interning_enabled
from repro.net.simnet import SimNetwork
from repro.sim import MultiObjectClientNode, ReplicaHost, Scheduler

from benchmarks.conftest import run_once

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import bench_record  # noqa: E402

WRITES = 10
OBJECTS = 8
#: All objects operate concurrently — the regime batching is for; at lower
#: in-flight caps completion staggering de-synchronises the rounds and the
#: reduction decays toward 1x (1.42x at in_flight=4 on this workload).
IN_FLIGHT = 8


def _reset_counters() -> None:
    encode_stats().reset()
    reset_wire_cache_stats()
    reset_interning()


def _encode_calls_per_write(*, fast_path: bool) -> float:
    """Canonical-encode calls per completed write, one arm of the ablation."""
    set_wire_cache_enabled(fast_path)
    set_interning_enabled(fast_path)
    _reset_counters()
    try:
        cluster = build_cluster(f=1, variant="base", seed=1400)
        cluster.run_scripts(
            {"w": [("write", f"value-{i}") for i in range(WRITES)]}
        )
        return encode_stats().calls / cluster.metrics.operations
    finally:
        set_wire_cache_enabled(True)
        set_interning_enabled(True)


def _multi_object_run(*, batching: bool) -> tuple[int, BatchStats, int]:
    """Run the 8-object mixed workload; return (frames, batch stats, ops)."""
    config = make_system(f=1, seed=b"bench-wire-batching")
    scheduler = Scheduler()
    network = SimNetwork(scheduler, seed=1401)
    for rid in config.quorums.replica_ids:
        ReplicaHost(MultiObjectReplica(rid, config), network)
    client = MultiObjectClient("client:bench", config)
    stats = BatchStats()
    node = MultiObjectClientNode(
        client,
        network,
        scheduler,
        max_in_flight=IN_FLIGHT,
        coalescer=BatchCoalescer(stats) if batching else None,
    )
    script = []
    for round_no in range(3):
        for obj_no in range(OBJECTS):
            obj = f"obj-{obj_no}"
            if (round_no + obj_no) % 3 == 2:
                script.append((obj, "read", None))
            else:
                script.append((obj, "write", f"v{round_no}-{obj_no}"))
    node.run_script(script)
    scheduler.run(until=60.0, stop_when=lambda: node.done)
    assert node.done, "workload did not complete"
    return network.stats.messages_sent, stats, len(node.results)


def test_e15_wire_fast_path(benchmark):
    def experiment():
        model = CostModel(make_system(f=1, seed=b"bench-wire-model").quorums)

        uncached = _encode_calls_per_write(fast_path=False)
        cached = _encode_calls_per_write(fast_path=True)
        hit_rate = wire_cache_stats().hit_rate
        speedup = uncached / cached

        unbatched_frames, _, ops_a = _multi_object_run(batching=False)
        batched_frames, batch_stats, ops_b = _multi_object_run(batching=True)
        assert ops_a == ops_b
        frame_reduction = unbatched_frames / batched_frames

        print()
        print(
            format_table(
                ["metric", "off", "on", "ratio", "model"],
                [
                    [
                        "encode calls / write",
                        round(uncached, 1),
                        round(cached, 1),
                        round(speedup, 2),
                        round(model.encode_speedup(), 2),
                    ],
                    [
                        f"wire frames ({OBJECTS}-object mixed)",
                        unbatched_frames,
                        batched_frames,
                        round(frame_reduction, 2),
                        round(
                            model.batching_frame_reduction(OBJECTS, IN_FLIGHT), 2
                        ),
                    ],
                ],
                title="E15: encode-once cache and cross-object batching",
            )
        )
        return {
            "encode_calls_per_write_uncached": uncached,
            "encode_calls_per_write_cached": cached,
            "encode_speedup": speedup,
            "wire_cache_hit_rate": hit_rate,
            "frames_unbatched": unbatched_frames,
            "frames_batched": batched_frames,
            "frame_reduction": frame_reduction,
            "mean_batch_size": batch_stats.mean_batch_size,
        }

    results = run_once(benchmark, experiment)
    # Acceptance bars: >= 2x fewer encodes per write, >= 1.5x fewer frames.
    assert results["encode_speedup"] >= 2.0, results
    assert results["frame_reduction"] >= 1.5, results
    assert results["wire_cache_hit_rate"] > 0.0, results
    assert results["mean_batch_size"] > 1.0, results
    bench_record.record("e15_wire_fast_path", results)
