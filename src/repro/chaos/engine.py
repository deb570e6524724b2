"""Episode and campaign execution: the imperative half of the chaos engine.

:func:`run_episode` turns one declarative :class:`~repro.chaos.plan.EpisodePlan`
into a wired simulated cluster — seeded network with the plan's link profile,
durable or volatile stores, Byzantine replica substitutions, an optional
Byzantine client attack with its post-run second act
(:meth:`~repro.sim.runner.Cluster.release_hoard`, the §3.2 orchestration
the CLI's ``attacks`` report runs too) — runs the multi-client workload
under the plan's fault schedule, and judges the outcome with the full
oracle battery.  Any exception escaping the run is itself an oracle
verdict, never a crash of the campaign.

:func:`run_campaign` drives N independently derivable episodes from one
integer seed, delta-debugs every violating episode down to a minimal plan
(:mod:`repro.chaos.minimize`) and, when given an artifact directory, writes
each minimal repro as a replayable JSON artifact.  The campaign summary is
a pure function of the seed — it contains virtual times and counters, never
wall-clock readings or filesystem paths — so two runs of the same seed
produce byte-identical summaries.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.byzantine import REPLICA_BEHAVIOURS, make_attack
from repro.chaos.oracles import ORACLES, OracleVerdict, run_oracle_battery
from repro.chaos.plan import CampaignConfig, EpisodePlan, generate_plan
from repro.errors import OperationFailedError, SimulationError
from repro.obs.instrumentation import Instrumentation
from repro.sim.faults import FaultSchedule
from repro.sim.runner import Cluster, ClusterOptions, build_cluster
from repro.sim.workload import make_scripts
from repro.storage import FileLogStore

__all__ = [
    "SUMMARY_FORMAT",
    "EpisodeResult",
    "CampaignResult",
    "run_episode",
    "run_campaign",
]

#: Format tag of the campaign summary dict.
SUMMARY_FORMAT = "repro-chaos-campaign/1"

#: A factory the engine uses for every *correct* replica instead of the
#: variant's default class — the guarded hook the bug-injection acceptance
#: test uses.  Called as ``factory(node_id, config, store)``.
ReplicaFactory = Callable[..., Any]


@dataclass
class EpisodeResult:
    """One episode's outcome: verdicts plus deterministic run counters."""

    plan: EpisodePlan
    verdicts: dict[str, OracleVerdict]
    end_time: float = 0.0
    operations: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    messages_reordered: int = 0
    dropped_by_reason: dict[str, int] = field(default_factory=dict)
    replica_crashes: int = 0
    #: Writes that abandoned the fast path for the signed protocol
    #: (always 0 outside the ``fastpath`` variant).
    fallbacks: int = 0
    #: Self-stabilization counters, summed over the correct replicas.
    quarantines: int = 0
    repairs: int = 0
    corrupt_records: int = 0
    corrupt_snapshots: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    @property
    def violations(self) -> tuple[str, ...]:
        """Names of the violated oracles, in battery order."""
        return tuple(
            name for name in ORACLES
            if name in self.verdicts and not self.verdicts[name].ok
        )

    def to_summary(self) -> dict[str, Any]:
        """The episode's deterministic row in the campaign summary."""
        plan = self.plan
        return {
            "episode": plan.episode,
            "variant": str(plan.variant),
            "store": plan.store,
            "attack": plan.attack,
            "byzantine": [
                f"{index}:{kind}"
                for index, kind in sorted(plan.byzantine_replicas.items())
            ],
            "faults": len(plan.faults),
            "clients": plan.clients,
            "ok": self.ok,
            "violated": list(self.violations),
            "end_time": round(self.end_time, 6),
            "operations": self.operations,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "messages_reordered": self.messages_reordered,
            "dropped_by_reason": dict(sorted(self.dropped_by_reason.items())),
            "replica_crashes": self.replica_crashes,
            "fallbacks": self.fallbacks,
            "quarantines": self.quarantines,
            "repairs": self.repairs,
            "corrupt_records": self.corrupt_records,
            "corrupt_snapshots": self.corrupt_snapshots,
        }


def _arm_audit_loop(cluster: Cluster, plan: EpisodePlan) -> None:
    """Arm the periodic self-audit tick on every *correct* replica node.

    Each tick runs :meth:`~repro.sim.nodes.ReplicaNode.audit_and_repair`
    (detect by replaying the durable log into a twin; quarantined replicas
    push repair pulls instead) and reschedules itself, so the loop spans
    the whole episode including the settle window.  Byzantine replicas are
    skipped — the model cannot mandate that a faulty node audits itself,
    and quarantining a catalogue behaviour mid-attack would silently turn
    it into a crashed one.
    """
    if plan.audit_interval <= 0:
        return
    byzantine = {f"replica:{index}" for index in plan.byzantine_replicas}

    def tick() -> None:
        for node_id, node in cluster.replica_nodes.items():
            if node_id not in byzantine:
                node.audit_and_repair()
        cluster.scheduler.call_at(
            cluster.scheduler.now + plan.audit_interval, tick
        )

    cluster.scheduler.call_at(plan.audit_interval, tick)


# -- episode execution ----------------------------------------------------------


def run_episode(
    plan: EpisodePlan,
    *,
    replica_factory: Optional[ReplicaFactory] = None,
    instrumentation: Optional[Instrumentation] = None,
    data_dir: Optional[str] = None,
) -> EpisodeResult:
    """Execute one plan and judge it with the full oracle battery.

    ``replica_factory`` substitutes every *correct* replica (the
    bug-injection hook; Byzantine indices keep their catalogue behaviour).
    ``data_dir`` pins the durable stores' directory; by default a fresh
    temporary directory is used and removed afterwards.
    """
    try:
        overrides: dict[int, Any] = {
            int(index): REPLICA_BEHAVIOURS[kind]
            for index, kind in plan.byzantine_replicas.items()
        }
    except KeyError as exc:
        raise SimulationError(
            f"unknown Byzantine behaviour {exc.args[0]!r}"
        ) from None
    tmp: Optional[tempfile.TemporaryDirectory] = None
    store_factory = None
    if plan.store == "filelog":
        if data_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
            data_dir = tmp.name
        base = Path(data_dir)
        store_factory = lambda node_id: FileLogStore(  # noqa: E731
            base / node_id.replace(":", "_"), fsync="always"
        )

    if replica_factory is not None:
        n = 3 * plan.f + 1
        for index in range(n):
            if index in overrides:
                continue
            def correct(node_id: str, config: Any,
                        _factory: ReplicaFactory = replica_factory) -> Any:
                store = store_factory(node_id) if store_factory else None
                return _factory(node_id, config, store)
            overrides[index] = correct

    cluster = build_cluster(
        ClusterOptions(
            f=plan.f,
            variant=plan.variant,
            seed=plan.seed,
            profile=plan.link_profile(),
            store_factory=store_factory,
            replica_overrides=overrides,
            instrumentation=instrumentation,
        )
    )

    error = ""
    error_kind: Optional[str] = None
    attack: Any = None
    try:
        cluster.install_faults(FaultSchedule(plan.faults))
        _arm_audit_loop(cluster, plan)
        if plan.attack is not None:
            attack = cluster.add_adversary(
                make_attack(plan.attack, "client:evil", cluster.config, plan.variant)
            )
        writers = [f"client:w{i}" for i in range(plan.clients)]
        scripts = make_scripts(
            writers,
            plan.ops_per_client,
            write_fraction=plan.write_fraction,
            seed=plan.seed,
        )
        cluster.run_scripts(
            {name.split(":", 1)[1]: steps for name, steps in scripts.items()},
            think_time=plan.think_time,
            stagger=plan.stagger,
            max_time=plan.max_time,
        )
        if hasattr(attack, "hoard"):
            cluster.release_hoard(attack)
        cluster.settle(2.0)
    except OperationFailedError as exc:
        error, error_kind = str(exc), "liveness"
    except Exception as exc:  # noqa: BLE001 — the no-exception oracle's feed
        error, error_kind = f"{type(exc).__name__}: {exc}", "exception"

    try:
        verdicts = run_oracle_battery(
            {None: cluster.history},
            cluster.replicas,
            plan.protocol,
            plan.f,
            byzantine={f"replica:{index}" for index in plan.byzantine_replicas},
            bad_clients=attack.identities if attack is not None else (),
            faults=plan.faults,
            down={
                node_id
                for node_id, node in cluster.replica_nodes.items()
                if node.down
            },
            error_kind=error_kind,
            error=error,
        )
        stats = cluster.network.stats
        return EpisodeResult(
            plan=plan,
            verdicts=verdicts,
            end_time=cluster.scheduler.now,
            operations=cluster.metrics.operations,
            messages_sent=stats.messages_sent,
            messages_dropped=stats.messages_dropped,
            messages_reordered=stats.messages_reordered,
            dropped_by_reason=dict(stats.dropped_by_reason),
            replica_crashes=sum(
                node.crashes for node in cluster.replica_nodes.values()
            ),
            fallbacks=sum(
                1
                for s in cluster.metrics.by_kind("write")
                if getattr(s, "fell_back", False)
            ),
            quarantines=sum(
                r.stats.quarantines for r in cluster.replicas.values()
            ),
            repairs=sum(r.stats.repairs for r in cluster.replicas.values()),
            corrupt_records=sum(
                r.store.stats.corrupt_records
                for r in cluster.replicas.values()
            ),
            corrupt_snapshots=sum(
                r.store.stats.corrupt_snapshots
                for r in cluster.replicas.values()
            ),
            error=error,
        )
    finally:
        for replica in cluster.replicas.values():
            replica.store.close()
        if tmp is not None:
            tmp.cleanup()


# -- campaign execution ---------------------------------------------------------


@dataclass
class CampaignResult:
    """Every episode's outcome plus the minimized repros of the failures."""

    config: CampaignConfig
    results: list[EpisodeResult]
    #: ``(minimized_plan, expected_verdicts, artifact_path_or_None)`` per
    #: violating episode; verdicts map oracle name -> ok.
    minimized: list[tuple[EpisodePlan, dict[str, bool], Optional[str]]] = field(
        default_factory=list
    )

    @property
    def violations(self) -> list[EpisodeResult]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> dict[str, Any]:
        """A deterministic (seed-pure) summary: no wall clock, no paths."""
        by_oracle: dict[str, int] = {}
        for result in self.results:
            for name in result.violations:
                by_oracle[name] = by_oracle.get(name, 0) + 1
        totals = {
            "operations": sum(r.operations for r in self.results),
            "messages_sent": sum(r.messages_sent for r in self.results),
            "messages_dropped": sum(r.messages_dropped for r in self.results),
            "messages_reordered": sum(
                r.messages_reordered for r in self.results
            ),
            "replica_crashes": sum(r.replica_crashes for r in self.results),
        }
        return {
            "format": SUMMARY_FORMAT,
            "seed": self.config.seed,
            "episodes": len(self.results),
            "variants": list(self.config.variants),
            "violations": len(self.violations),
            "violations_by_oracle": dict(sorted(by_oracle.items())),
            "minimized": [
                {
                    "episode": plan.episode,
                    "faults": len(plan.faults),
                    "verdicts": dict(sorted(verdicts.items())),
                }
                for plan, verdicts, _path in self.minimized
            ],
            "totals": totals,
            "episodes_detail": [r.to_summary() for r in self.results],
        }


def run_campaign(
    config: CampaignConfig,
    *,
    replica_factory: Optional[ReplicaFactory] = None,
    minimize: bool = True,
    artifact_dir: Optional[str] = None,
    minimize_budget: int = 120,
    progress: Optional[Callable[[EpisodeResult], None]] = None,
) -> CampaignResult:
    """Run ``config.episodes`` seed-derived episodes; minimize any failure.

    When ``artifact_dir`` is given, each violating episode's minimized plan
    is written there as ``chaos-seed{S}-ep{E}.json`` (a replayable
    artifact).  ``progress`` is called with each finished episode.
    """
    from repro.chaos.artifact import save_artifact
    from repro.chaos.minimize import minimize_episode

    campaign = CampaignResult(config=config, results=[])
    for episode in range(config.episodes):
        plan = generate_plan(config, episode)
        result = run_episode(plan, replica_factory=replica_factory)
        campaign.results.append(result)
        if progress is not None:
            progress(result)
        if result.ok or not minimize:
            continue
        minimized = minimize_episode(
            plan, replica_factory=replica_factory, budget=minimize_budget
        )
        verdicts = {
            name: verdict.ok
            for name, verdict in minimized.final.verdicts.items()
        }
        path: Optional[str] = None
        if artifact_dir is not None:
            target = Path(artifact_dir)
            target.mkdir(parents=True, exist_ok=True)
            path = str(
                target / f"chaos-seed{config.seed}-ep{plan.episode}.json"
            )
            save_artifact(
                path,
                minimized.plan,
                verdicts,
                note=(
                    f"minimized from episode {plan.episode} of campaign "
                    f"seed {config.seed} ({len(plan.faults)} -> "
                    f"{len(minimized.plan.faults)} faults)"
                ),
            )
        campaign.minimized.append((minimized.plan, verdicts, path))
    return campaign
