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
  running replica is still quarantined or running on a suspect store,
  every one passes a final self-audit, and when a fault declared
  ``damages_state`` (:data:`~repro.sim.faults.FAULT_OPS`) was injected the
  periodic audits demonstrably ran.  Corruption may be *silently healed*
  (compaction rewrote the damaged file before any audit saw it, or a later
  write overwrote the perturbed field) — that is fine precisely because
  the final audit proves the survivor state is the replay of its own
  durable log.

:func:`run_oracle_battery` takes its inputs explicitly (histories by
object, replicas by label, the declared protocol, f, the Byzantine set, the
bad clients and the injected fault specs), so the simulated, sharded and
TCP campaigns all call the one battery.  It returns a verdict per oracle;
the engine folds these into the campaign summary and the minimizer uses
the set of violated oracle names as its reduction target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from repro.core.config import Protocol
from repro.sim.faults import damaged_nodes
from repro.spec.bft_linearizability import (
    check_bft_linearizable,
    count_lurking_writes,
)
from repro.spec.histories import History
from repro.spec.invariants import check_lemma1

if TYPE_CHECKING:
    from repro.sim.shard_cluster import ShardCluster

__all__ = [
    "OracleVerdict",
    "ORACLES",
    "SHARD_ORACLES",
    "run_oracle_battery",
    "check_epoch_agreement",
]


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

#: Battery order for sharded episodes: the eight above, judged per object
#: across every shard, plus the reconfiguration-specific oracle.
SHARD_ORACLES = ORACLES + ("epoch-agreement",)


def run_oracle_battery(
    histories: Mapping[Optional[str], History],
    replicas: Mapping[str, Any],
    protocol: Protocol,
    f: int,
    *,
    byzantine: Iterable[str] = (),
    bad_clients: Iterable[str] = (),
    faults: Iterable[Mapping[str, Any]] = (),
    down: Iterable[str] = (),
    error_kind: Optional[str] = None,
    error: str = "",
) -> dict[str, OracleVerdict]:
    """Judge one finished (or aborted) episode against every oracle.

    ``histories`` maps object id (None for a single-object deployment) to
    its recorded history.  ``replicas`` maps a label ``[group/]node`` to
    each replica state machine, Byzantine ones included; Lemma 1 is judged
    per group.  ``byzantine`` names the Byzantine replica node ids,
    ``bad_clients`` the Byzantine clients, ``faults`` the injected fault
    specs (the state-damaging ones make the stabilization oracle insist
    that audits ran), and ``down`` the labels of replicas still crashed,
    which cannot stabilize.  ``error_kind`` is ``"liveness"`` when the run
    exhausted its budget, ``"exception"`` when something raised, else None;
    ``error`` carries the message for the verdict detail.
    """
    byzantine, bad_clients, down = map(frozenset, (byzantine, bad_clients, down))
    verdicts = {
        name: OracleVerdict(
            name, error_kind != kind, error if error_kind == kind else ""
        )
        for name, kind in (("no-exception", "exception"), ("liveness", "liveness"))
    }

    def verdict(name: str, problems: list[str]) -> OracleVerdict:
        return OracleVerdict(name, not problems, "; ".join(problems))

    def scoped(scope: Optional[str], problem: str) -> str:
        return f"{scope}: {problem}" if scope else problem

    problems: list[str] = []
    worst = 0
    for obj, history in sorted(histories.items(), key=lambda item: str(item[0])):
        result = check_bft_linearizable(
            history, max_b=protocol.max_b, bad_clients=set(bad_clients), obj=obj
        )
        if not result.ok:
            problems.append(scoped(obj, result.violation or ""))
        for bad in sorted(bad_clients):
            worst = max(worst, count_lurking_writes(history, bad))
    verdicts["bft-linearizable"] = verdict("bft-linearizable", problems)
    verdicts["lurking-bound"] = verdict("lurking-bound", [
        f"{worst} lurking writes exceed the variant bound {protocol.max_b}"
    ] if worst > protocol.max_b else [])

    groups: dict[str, list[Any]] = {}
    for label, replica in replicas.items():
        groups.setdefault(label.rpartition("/")[0], []).append(replica)
    problems = []
    for group, members in sorted(groups.items()):
        report = check_lemma1(
            members,
            f=f,
            byzantine_replicas=byzantine,
            max_prepared_per_client=protocol.max_prepared,
        )
        problems.extend(scoped(group, v) for v in report.violations)
    verdicts["lemma1"] = verdict("lemma1", problems)

    correct = {
        label: replica
        for label, replica in sorted(replicas.items())
        if replica.node_id not in byzantine
    }
    verdicts["recovery-fingerprint"] = _check_recovery(correct)
    verdicts["wal-integrity"] = _check_wal(correct)
    verdicts["stabilization"] = _check_stabilization(
        {label: r for label, r in correct.items() if label not in down},
        damaged_nodes(faults),
    )
    return verdicts


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
    replicas: Mapping[str, Any], corrupted: set[str]
) -> OracleVerdict:
    """Every labelled (correct, running) replica has stabilized after the
    injected corruption of the ``corrupted`` nodes.

    A replica is *stabilized* when it is not quarantined, its store is not
    suspect, and replaying its durable log into a twin reproduces its live
    state (``self_audit``).  The oracle does not insist that a specific
    detection counter fired for every injected fault: damage can be
    legitimately absorbed before any audit sees it (compaction rewrote the
    bit-flipped WAL; a later write overwrote the perturbed field), and the
    final audit is exactly the proof that whatever survived is the honest
    replay of the durable log.  What it *does* insist on, whenever state
    was damaged, is that the periodic audits actually ran — a campaign
    that never audits would otherwise vacuously pass.
    """
    problems: list[str] = []
    for label, replica in replicas.items():
        if replica.quarantined:
            reasons = dict(replica.stats.quarantine_reasons)
            problems.append(f"{label} still quarantined ({reasons})")
            continue
        if getattr(replica.store, "suspect", False):
            problems.append(f"{label} store still suspect")
        if corrupted and replica.stats.self_audits == 0:
            # Checked before the final audit below bumps the counter.
            problems.append(
                f"{label} never self-audited despite injected corruption"
            )
        if not replica.self_audit():
            problems.append(f"{label} fails the final self-audit")
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
