"""Differential test: cross-object batching must not change outcomes.

In a multi-object deployment batches genuinely form and message timing
therefore differs, so demand equal protocol *outcomes*: every per-object
operation sequence returns the same results, replicas converge to the same
state, and each per-object history stays linearizable.
"""

from __future__ import annotations

from repro.core import GENESIS_VALUE, make_system
from repro.core.batching import BatchCoalescer, BatchStats
from repro.core.multiobject import MultiObjectClient, MultiObjectReplica
from repro.net.simnet import LinkProfile, SimNetwork
from repro.sim import MultiObjectClientNode, ReplicaHost, Scheduler
from repro.spec.linearizability import check_register_linearizable

#: A schedule that exercises retransmission and duplicate suppression.
FAULTY_PROFILE = dict(drop_rate=0.1, duplicate_rate=0.05)


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
