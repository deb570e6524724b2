"""Differential crash-recovery schedules on the simulator.

Acceptance test for the durable storage engine: for every protocol variant,
a replica is crashed mid-protocol (losing its process) and restarted from
its :class:`~repro.storage.FileLogStore`.  The run must stay
BFT-linearizable, and — once post-restart writes have flowed through every
replica — each replica's Figure-2 state fingerprint must equal its twin's
from a fault-free :class:`~repro.storage.MemoryStore` run of the same
workload.  Signing logs are excluded from the fingerprints: a replica that
was down for an operation legitimately never signed it.
"""

from __future__ import annotations

import pytest

from repro.sim import build_cluster
from repro.sim.faults import FaultSchedule
from repro.sim.nodes import ScriptStep
from repro.sim.runner import ClusterOptions
from repro.spec import check_bft_linearizable
from repro.storage import FileLogStore
from repro.errors import SimulationError

MAX_B = {"base": 1, "optimized": 2, "strong": 1, "fastpath": 2}

#: Enough writes that several complete before the crash, some run during the
#: outage, and at least one full write lands after the restart.
SCRIPT: list[ScriptStep] = [("write", ("w", i)) for i in range(8)] + [
    ("read", None)
]

CRASHED = "replica:2"


def run_workload(options, schedule=None):
    cluster = build_cluster(options)
    if schedule is not None:
        cluster.install_faults(schedule)
    cluster.run_scripts({"alice": SCRIPT}, max_time=120)
    cluster.settle(2.0)
    return cluster


def fingerprints(cluster):
    return {
        rid: replica.state_fingerprint()
        for rid, replica in cluster.replicas.items()
    }


@pytest.mark.parametrize("variant", ["base", "optimized", "strong", "fastpath"])
def test_crash_recovery_matches_fault_free_run(variant, tmp_path):
    baseline = run_workload(ClusterOptions(variant=variant, seed=7))

    # Crash a third of the way into the (measured) workload and restart
    # just past the middle, so several full writes flow through the
    # recovered replica before the run ends and state can converge.
    duration = baseline.scheduler.now
    durable = run_workload(
        ClusterOptions(
            variant=variant,
            seed=7,
            store_factory=lambda rid: FileLogStore(tmp_path / variant / rid),
        ),
        schedule=FaultSchedule().crash_restart(
            0.3 * duration, CRASHED, down_for=0.25 * duration
        ),
    )

    node = durable.replica_nodes[CRASHED]
    assert node.crashes == 1 and node.restarts == 1

    report = check_bft_linearizable(durable.history, max_b=MAX_B[variant])
    assert report.ok, report

    assert fingerprints(durable) == fingerprints(baseline)


def test_memory_store_crash_is_the_unsafe_baseline():
    """Crash/restart with the volatile default wipes the replica, yet the
    protocol still masks it (it looks like one faulty replica, f=1)."""
    cluster = build_cluster(ClusterOptions(seed=3))
    cluster.install_faults(
        FaultSchedule().crash_restart(0.1, CRASHED, down_for=0.1)
    )
    cluster.run_scripts({"alice": SCRIPT}, max_time=120)
    node = cluster.replica_nodes[CRASHED]
    assert node.crashes == 1 and node.restarts == 1
    assert cluster.replicas[CRASHED].store.stats.crashes == 1
    assert check_bft_linearizable(cluster.history, max_b=1).ok


def test_torn_tail_recovery_under_fsync_never(tmp_path):
    """With fsync="never" the crash loses the unsynced WAL tail; recovery
    truncates it and the run still converges and linearizes."""
    options = ClusterOptions(
        seed=11,
        store_factory=lambda rid: FileLogStore(tmp_path / rid, fsync="never"),
    )
    cluster = build_cluster(options)
    cluster.install_faults(
        FaultSchedule().crash_restart(0.1, CRASHED, down_for=0.1)
    )
    cluster.run_scripts({"alice": SCRIPT}, max_time=120)
    cluster.settle(2.0)
    assert check_bft_linearizable(cluster.history, max_b=1).ok

    baseline = run_workload(ClusterOptions(seed=11))
    assert fingerprints(cluster) == fingerprints(baseline)


def test_node_actions_require_nodes():
    schedule = FaultSchedule().crash_restart(1.0, "replica:0", down_for=1.0)
    cluster = build_cluster(ClusterOptions(seed=0))
    with pytest.raises(SimulationError):
        schedule.install(cluster.scheduler, cluster.network)
    with pytest.raises(SimulationError):
        FaultSchedule().crash_restart(1.0, "replica:99", down_for=1.0).install(
            cluster.scheduler, cluster.network, nodes=cluster.replica_nodes
        )


def test_storage_metrics_flow_through_collector(tmp_path):
    options = ClusterOptions(
        seed=5, store_factory=lambda rid: FileLogStore(tmp_path / rid)
    )
    cluster = run_workload(options)
    totals = cluster.metrics.storage_totals()
    assert totals.appends > 0
    assert totals.fsyncs > 0
    assert cluster.metrics.log_appends_per_op() > 0
    assert cluster.metrics.fsyncs_per_op() > 0


def test_retransmission_through_crash_restart_is_deterministic_and_live():
    def run_once():
        options = ClusterOptions(seed=9, retransmit_interval=0.03)
        cluster = build_cluster(options)
        cluster.install_faults(
            FaultSchedule().crash_restart(0.1, CRASHED, down_for=0.1)
        )
        cluster.run_scripts({"alice": SCRIPT}, max_time=120)
        return cluster

    first, second = run_once(), run_once()
    assert first.scheduler.now == second.scheduler.now
    assert (
        first.metrics.retransmit_ticks == second.metrics.retransmit_ticks
    )
    assert check_bft_linearizable(first.history, max_b=1).ok
