"""The invariant oracle battery every chaos episode must pass.

Each oracle checks one property the paper (or the implementation) promises
to hold under *any* schedule the §2 model admits:

* ``no-exception`` — nothing in the stack raised; an unhandled exception
  anywhere is a bug regardless of protocol correctness.
* ``liveness`` — the workload terminated within the episode's virtual-time
  budget.  Generated plans stay inside the fault assumptions (≤ f replicas
  Byzantine-or-down at once, partitions heal, ``drop_rate < 1``), so the
  fair-loss argument of §2 applies and non-termination is a violation.
* ``bft-linearizable`` — Definition 1 against the recorded history, with
  the variant's lurking bound and the episode's bad clients.
* ``lurking-bound`` — Theorem 1/2 explicitly: no bad client's post-stop
  visible writes exceed ``max_b`` (1 base/strong, 2 optimized).
* ``lemma1`` — the correct replicas' signing logs satisfy Lemma 1(1–3)
  (Lemma 1' part 2 for the optimized variant).
* ``recovery-fingerprint`` — for every correct replica, a twin replica
  recovered from the same store reproduces the live replica's state
  fingerprint: recovery is total and the WAL captured every mutation.
* ``wal-integrity`` — every durable store's ``load()`` is idempotent
  (two loads return identical snapshot + records).
* ``stabilization`` — the self-stabilization loop converged: no correct
  replica is still quarantined or running on a suspect store, every
  correct replica passes a final self-audit, and when the plan injected
  state corruption the periodic audits demonstrably ran.  Corruption may
  be *silently healed* (compaction rewrote the damaged file before any
  audit saw it, or a later write overwrote the perturbed field) — that is
  fine precisely because the final audit proves the survivor state is the
  replay of its own durable log.

The battery returns a verdict per oracle; the engine folds these into the
campaign summary and the minimizer uses the set of violated oracle names
as its reduction target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.chaos.plan import EpisodePlan
from repro.spec.bft_linearizability import (
    check_bft_linearizable,
    count_lurking_writes,
)
from repro.spec.invariants import check_lemma1

if TYPE_CHECKING:
    from repro.sim.runner import Cluster
    from repro.sim.shard_cluster import ShardCluster

__all__ = [
    "OracleVerdict",
    "ORACLES",
    "SHARD_ORACLES",
    "CORRUPTION_OPS",
    "run_oracle_battery",
    "check_epoch_agreement",
]

#: Fault ops that damage replica state (vs merely the network); the
#: stabilization oracle keys its expectations off their presence.
CORRUPTION_OPS = frozenset({"wal_bitflip", "snapshot_truncate", "state_perturb"})


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's judgement of one episode."""

    oracle: str
    ok: bool
    detail: str = ""


#: Battery order (also the order verdicts are reported in).
ORACLES = (
    "no-exception",
    "liveness",
    "bft-linearizable",
    "lurking-bound",
    "lemma1",
    "recovery-fingerprint",
    "wal-integrity",
    "stabilization",
)

#: Battery order for sharded episodes: the seven above, judged per object
#: across every shard, plus the reconfiguration-specific oracle.
SHARD_ORACLES = ORACLES + ("epoch-agreement",)


def run_oracle_battery(
    cluster: "Cluster",
    plan: EpisodePlan,
    *,
    bad_clients: frozenset[str] = frozenset(),
    error_kind: Optional[str] = None,
    error: str = "",
) -> dict[str, OracleVerdict]:
    """Judge one finished (or aborted) episode against every oracle.

    ``error_kind`` is ``"liveness"`` when the run exhausted its budget,
    ``"exception"`` when something raised, else None; ``error`` carries
    the message for the verdict detail.
    """
    byzantine = frozenset(
        f"replica:{index}" for index in plan.byzantine_replicas
    )
    verdicts = _error_verdicts(error_kind, error)
    protocol = plan.protocol

    result = check_bft_linearizable(
        cluster.history, max_b=protocol.max_b, bad_clients=set(bad_clients)
    )
    verdicts["bft-linearizable"] = OracleVerdict(
        "bft-linearizable", result.ok, result.violation or ""
    )

    worst = 0
    for bad in sorted(bad_clients):
        worst = max(worst, count_lurking_writes(cluster.history, bad))
    verdicts["lurking-bound"] = OracleVerdict(
        "lurking-bound",
        worst <= protocol.max_b,
        "" if worst <= protocol.max_b else (
            f"{worst} lurking writes exceed the variant bound {protocol.max_b}"
        ),
    )

    report = check_lemma1(
        cluster.replicas.values(),
        f=plan.f,
        byzantine_replicas=byzantine,
        max_prepared_per_client=protocol.max_prepared,
    )
    verdicts["lemma1"] = OracleVerdict(
        "lemma1", report.ok, "; ".join(report.violations)
    )

    correct = {
        node_id: replica
        for node_id, replica in sorted(cluster.replicas.items())
        if node_id not in byzantine
    }
    verdicts["recovery-fingerprint"] = _check_recovery(correct)
    # Volatile episodes have no durable store to load twice.
    verdicts["wal-integrity"] = (
        _check_wal(correct)
        if plan.store == "filelog"
        else OracleVerdict("wal-integrity", True, "not a durable episode")
    )
    verdicts["stabilization"] = _check_stabilization(cluster, plan, byzantine)
    return verdicts


def _error_verdicts(
    error_kind: Optional[str], error: str
) -> dict[str, OracleVerdict]:
    """``no-exception`` and ``liveness``, judged from how the run ended."""
    return {
        name: OracleVerdict(
            name, error_kind != kind, error if error_kind == kind else ""
        )
        for name, kind in (("no-exception", "exception"), ("liveness", "liveness"))
    }


def _check_recovery(replicas: Mapping[str, Any]) -> OracleVerdict:
    """A twin recovered from each labelled replica's store must match it."""
    mismatched = []
    for label, replica in replicas.items():
        twin = type(replica)(replica.node_id, replica.config, store=replica.store)
        twin.recover()
        if twin.state_fingerprint() != replica.state_fingerprint():
            mismatched.append(label)
    return OracleVerdict(
        "recovery-fingerprint",
        not mismatched,
        "" if not mismatched else (
            "recovered twin diverges from live state at " + ", ".join(mismatched)
        ),
    )


def _check_wal(replicas: Mapping[str, Any]) -> OracleVerdict:
    """Every labelled replica's store must load idempotently."""
    unstable = []
    for label, replica in replicas.items():
        first = replica.store.load()
        second = replica.store.load()
        if first != second:
            unstable.append(label)
    return OracleVerdict(
        "wal-integrity",
        not unstable,
        "" if not unstable else (
            "non-idempotent WAL load at " + ", ".join(unstable)
        ),
    )


def _check_stabilization(
    cluster: "Cluster", plan: EpisodePlan, byzantine: frozenset[str]
) -> OracleVerdict:
    """Every correct replica has stabilized after the injected corruption.

    A replica is *stabilized* when it is not quarantined, its store is not
    suspect, and replaying its durable log into a twin reproduces its live
    state (``self_audit``).  The oracle does not insist that a specific
    detection counter fired for every injected fault: damage can be
    legitimately absorbed before any audit sees it (compaction rewrote the
    bit-flipped WAL; a later write overwrote the perturbed field), and the
    final audit is exactly the proof that whatever survived is the honest
    replay of the durable log.  What it *does* insist on, whenever the plan
    injected corruption and scheduled a non-zero audit cadence, is that
    the periodic audits actually ran — a campaign that never audits would
    otherwise vacuously pass.
    """
    corrupted = {
        spec["node"] for spec in plan.faults if spec.get("op") in CORRUPTION_OPS
    }
    audits_expected = bool(corrupted) and plan.audit_interval > 0
    nodes = getattr(cluster, "replica_nodes", {})
    problems: list[str] = []
    for node_id, replica in sorted(cluster.replicas.items()):
        if node_id in byzantine:
            continue
        node = nodes.get(node_id)
        if node is not None and getattr(node, "down", False):
            continue
        if replica.quarantined:
            reasons = dict(replica.stats.quarantine_reasons)
            problems.append(f"{node_id} still quarantined ({reasons})")
            continue
        if getattr(replica.store, "suspect", False):
            problems.append(f"{node_id} store still suspect")
        if audits_expected and replica.stats.self_audits == 0:
            # Checked before the final audit below bumps the counter.
            problems.append(
                f"{node_id} never self-audited despite injected corruption"
            )
        if not replica.self_audit():
            problems.append(f"{node_id} fails the final self-audit")
    return OracleVerdict(
        "stabilization",
        not problems,
        "; ".join(problems) if problems else (
            "" if not corrupted else (
                "corruption injected at " + ", ".join(sorted(corrupted))
            )
        ),
    )


def check_epoch_agreement(cluster: "ShardCluster") -> OracleVerdict:
    """All live members of every shard settled on one installed epoch.

    After a reconfiguration quiesces, safety requires agreement on *which*
    configuration governs each shard: every reconfiguration ran to
    completion, every live current member serves exactly the installed
    epoch (nobody is stuck on a superseded one or left half-bootstrapped),
    every replaced-but-running member retired, and no correct member was
    ever asked to endorse two different successors of one epoch (the
    equivocation guard never fired on a correct-only schedule).
    """
    problems: list[str] = []
    for node in cluster.reconfigurations:
        if not node.machine.done:
            problems.append(
                f"reconfiguration {node.node_id} stuck in phase "
                f"{node.machine.phase!r}"
            )
    for shard in cluster.shard_ids:
        installed = cluster.directory.epoch(shard)
        members = cluster.directory.config(shard).members
        for member in members:
            node = cluster.replica_nodes.get(member)
            if node is None or node.down:
                continue
            replica = node.replica
            if not replica.ready:
                problems.append(f"{member} never finished bootstrap")
            elif replica.retired:
                problems.append(f"{member} retired despite being a member")
            elif replica.epoch != installed:
                problems.append(
                    f"{member} serves epoch {replica.epoch}, "
                    f"installed is {installed}"
                )
            if replica.directory.epoch(shard) != installed:
                problems.append(
                    f"{member} directory tip {replica.directory.epoch(shard)} "
                    f"!= installed {installed}"
                )
            if replica.sign_conflicts:
                problems.append(
                    f"{member} saw {replica.sign_conflicts} conflicting "
                    f"sign requests"
                )
        for node_id, node in cluster.replica_nodes.items():
            replica = node.replica
            if (
                replica.shard == shard
                and node_id not in members
                and not node.down
                and not replica.retired
            ):
                problems.append(f"replaced member {node_id} never retired")
    return OracleVerdict(
        "epoch-agreement", not problems, "; ".join(problems)
    )
