"""Differential tests: batching must not change protocol behaviour.

Two regimes, two proof obligations:

* **Single-object deployments** (base / optimized / strong / BQS): no two
  sends of a round share a destination, so the coalescer is a strict
  pass-through.  Run the same seeded workload — under a lossy, duplicating
  link schedule — with batching off and on, and demand the runs are
  *identical*: same history events, same operation samples, same network
  counters, same virtual clock.  The coalescer consumes no randomness, so
  any divergence at all is a batching bug.

* **Multi-object deployments**, where batches genuinely form and message
  timing therefore differs: demand equal protocol *outcomes* — every
  per-object operation sequence returns the same results, replicas converge
  to the same state, and each per-object history stays linearizable.
"""

from __future__ import annotations

import pytest

from repro.baselines.runner import build_bqs_cluster
from repro.core import GENESIS_VALUE, make_system
from repro.core.batching import BatchCoalescer, BatchStats
from repro.core.multiobject import MultiObjectClient, MultiObjectReplica
from repro.net.simnet import LinkProfile, SimNetwork
from repro.sim import (
    MultiObjectClientNode,
    ReplicaHost,
    Scheduler,
    build_cluster,
)
from repro.spec.linearizability import check_register_linearizable

#: A schedule that exercises retransmission and duplicate suppression.
FAULTY_PROFILE = dict(drop_rate=0.1, duplicate_rate=0.05)

SCRIPTS = {
    "w1": [("write", "a1"), ("read", None), ("write", "a2")],
    "w2": [("write", "b1"), ("write", "b2"), ("read", None)],
}


def _fingerprint(cluster) -> dict:
    """Everything observable about a finished run, for exact comparison."""
    net = cluster.network.stats
    return {
        "events": list(cluster.history.events),
        "samples": list(cluster.metrics.samples),
        "retransmit_ticks": cluster.metrics.retransmit_ticks,
        "network": (
            net.messages_sent,
            net.messages_delivered,
            net.messages_dropped,
            net.messages_duplicated,
            net.bytes_sent,
            net.bytes_delivered,
            dict(net.sent_by_kind),
            dict(net.bytes_by_kind),
        ),
        "virtual_now": cluster.scheduler.now,
        "events_processed": cluster.scheduler.events_processed,
    }


@pytest.mark.parametrize("variant", ["base", "optimized", "strong", "fastpath"])
def test_single_object_variants_byte_identical(variant):
    def run(batching: bool) -> dict:
        cluster = build_cluster(
            f=1,
            variant=variant,
            seed=77,
            profile=LinkProfile(**FAULTY_PROFILE),
            batching=batching,
        )
        cluster.run_scripts(SCRIPTS)
        return _fingerprint(cluster)

    off, on = run(False), run(True)
    assert off == on


def test_bqs_baseline_byte_identical():
    def run(batching: bool) -> dict:
        cluster = build_bqs_cluster(
            f=1, seed=78, profile=LinkProfile(**FAULTY_PROFILE), batching=batching
        )
        cluster.run_scripts(SCRIPTS)
        return _fingerprint(cluster)

    off, on = run(False), run(True)
    assert off == on


def test_single_object_coalescer_is_pure_passthrough():
    """With one object in flight, the coalescer forms no batches at all."""
    cluster = build_cluster(
        f=1, variant="base", seed=79, profile=LinkProfile(**FAULTY_PROFILE),
        batching=True,
    )
    cluster.run_scripts(SCRIPTS)
    assert cluster.batch_stats is not None
    assert cluster.batch_stats.batches == 0
    assert cluster.batch_stats.frames_saved == 0
    assert cluster.batch_stats.sends_in == cluster.batch_stats.frames_out


class TestMultiObjectOutcomes:
    OBJECTS = 4

    def _run(self, batching: bool):
        config = make_system(f=1, seed=b"diff-multi")
        scheduler = Scheduler()
        network = SimNetwork(
            scheduler, profile=LinkProfile(**FAULTY_PROFILE), seed=80
        )
        replicas = {
            rid: MultiObjectReplica(rid, config)
            for rid in config.quorums.replica_ids
        }
        for replica in replicas.values():
            ReplicaHost(replica, network)
        client = MultiObjectClient("client:m", config)
        node = MultiObjectClientNode(
            client,
            network,
            scheduler,
            max_in_flight=self.OBJECTS,
            record_history=True,
            coalescer=BatchCoalescer(BatchStats()) if batching else None,
        )
        script = []
        for round_no in range(3):
            for obj_no in range(self.OBJECTS):
                obj = f"obj-{obj_no}"
                if (round_no + obj_no) % 3 == 2:
                    script.append((obj, "read", None))
                else:
                    script.append((obj, "write", f"v{round_no}-{obj_no}"))
        node.run_script(script)
        scheduler.run(until=120.0, stop_when=lambda: node.done)
        assert node.done
        return node, replicas

    @staticmethod
    def _per_object_results(node) -> dict:
        results: dict = {}
        for (obj, kind, value), result in node.results:
            results.setdefault(obj, []).append((kind, value, result))
        return results

    def test_batched_and_unbatched_agree(self):
        plain_node, plain_replicas = self._run(batching=False)
        batch_node, batch_replicas = self._run(batching=True)

        # Per-object operation sequences return identical results.
        assert self._per_object_results(plain_node) == self._per_object_results(
            batch_node
        )

        # Replicas converge to the same per-object values.
        for rid, plain in plain_replicas.items():
            batched = batch_replicas[rid]
            assert plain.objects == batched.objects
            for obj in plain.objects:
                assert (
                    plain.object_state(obj).data == batched.object_state(obj).data
                ), (rid, obj)

        # Batches actually formed in the batched arm (the test is vacuous
        # otherwise), and every per-object history stays linearizable.
        assert batch_node.batch_stats.batches > 0
        for node in (plain_node, batch_node):
            for obj, history in node.histories.items():
                report = check_register_linearizable(
                    history, initial_value=GENESIS_VALUE, obj=obj
                )
                assert report, (obj, report)
