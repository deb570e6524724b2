"""Chaos episodes for sharded deployments with online reconfiguration.

A :class:`ShardEpisodePlan` is the sharded sibling of
:class:`~repro.chaos.plan.EpisodePlan`: a declarative, JSON-serialisable
description of one adversarial run over a multi-group cluster — shard
count, link profile, network faults, client workload, and (the point of
the exercise) timed **reconfigurations** that replace a member of a live
shard mid-traffic.  The joining replica bootstraps by state transfer, the
epoch installs under whatever operations are in flight, and the episode is
judged by the full oracle battery per object plus the
``epoch-agreement`` oracle (:data:`~repro.chaos.oracles.SHARD_ORACLES`).

Artifacts are saved, loaded and replayed by :mod:`repro.chaos.artifact`,
under a distinct format tag (``repro-chaos-shard-artifact/1``) so a shard
plan is never mistaken for an :class:`~repro.chaos.plan.EpisodePlan`; the
committed corpus under ``traces/chaos/`` mixes both kinds.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos.oracles import (
    SHARD_ORACLES,
    OracleVerdict,
    _check_recovery,
    _check_wal,
    _error_verdicts,
    check_epoch_agreement,
)
from repro.chaos.plan import build_schedule
from repro.core.config import Variant
from repro.errors import OperationFailedError, SimulationError
from repro.net.simnet import LinkProfile
from repro.sim.shard_cluster import ShardCluster, ShardClusterOptions
from repro.spec.bft_linearizability import check_bft_linearizable
from repro.spec.invariants import check_lemma1

__all__ = [
    "SHARD_PLAN_FORMAT",
    "SHARD_ARTIFACT_FORMAT",
    "ShardEpisodePlan",
    "ShardEpisodeResult",
    "run_shard_episode",
]

SHARD_PLAN_FORMAT = "repro-chaos-shard/1"
SHARD_ARTIFACT_FORMAT = "repro-chaos-shard-artifact/1"


@dataclass
class ShardEpisodePlan:
    """One declarative sharded chaos episode."""

    seed: int
    shards: int = 2
    f: int = 1
    variant: str = "base"
    #: :class:`~repro.net.simnet.LinkProfile` keyword arguments.
    profile: dict[str, float] = field(default_factory=dict)
    #: Timed member replacements, each
    #: ``{"time": t, "shard": s, "remove": id, "add": id, "crash_old": bool}``.
    reconfigurations: list[dict[str, Any]] = field(default_factory=list)
    #: Network fault specs in :func:`~repro.chaos.plan.build_schedule` shape.
    faults: list[dict[str, Any]] = field(default_factory=list)
    clients: int = 2
    ops_per_client: int = 12
    objects: int = 8
    write_fraction: float = 0.6
    handoff: float = 0.5
    max_time: float = 300.0
    #: Virtual time to keep running after the workload completes, so
    #: handoff windows close and stragglers retire.  Must exceed handoff.
    settle: float = 2.0

    def link_profile(self) -> LinkProfile:
        return LinkProfile(**self.profile)

    def to_json(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["format"] = SHARD_PLAN_FORMAT
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ShardEpisodePlan":
        payload = dict(data)
        fmt = payload.pop("format", SHARD_PLAN_FORMAT)
        if fmt != SHARD_PLAN_FORMAT:
            raise SimulationError(f"unsupported shard plan format {fmt!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise SimulationError(f"unknown shard plan fields {sorted(unknown)}")
        return cls(**payload)


@dataclass
class ShardEpisodeResult:
    """One executed shard episode with its oracle verdicts."""

    plan: ShardEpisodePlan
    verdicts: dict[str, OracleVerdict]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(
            name for name in SHARD_ORACLES if not self.verdicts[name].ok
        )


def _scripts(plan: ShardEpisodePlan) -> dict[str, list[tuple[str, str, Any]]]:
    """The deterministic per-client workload derived from the plan seed."""
    scripts: dict[str, list[tuple[str, str, Any]]] = {}
    for index in range(plan.clients):
        rng = random.Random(f"shard-chaos/{plan.seed}/{index}")
        name = f"w{index}"
        steps: list[tuple[str, str, Any]] = []
        for op in range(plan.ops_per_client):
            obj = f"obj:{rng.randrange(plan.objects)}"
            if rng.random() < plan.write_fraction:
                steps.append((obj, "write", f"{name}-{op}"))
            else:
                steps.append((obj, "read", None))
        scripts[name] = steps
    return scripts


def run_shard_episode(plan: ShardEpisodePlan) -> ShardEpisodeResult:
    """Execute one shard episode and judge it against every oracle."""
    cluster = ShardCluster(
        ShardClusterOptions(
            shards=plan.shards,
            f=plan.f,
            variant=plan.variant,
            seed=plan.seed,
            profile=plan.link_profile(),
            handoff=plan.handoff,
        )
    )
    schedule = build_schedule(plan.faults)
    for spec in plan.reconfigurations:
        schedule.reconfigure(
            spec["time"],
            spec["shard"],
            remove=spec["remove"],
            add=spec["add"],
            crash_old=bool(spec.get("crash_old", False)),
        )
    cluster.install_faults(schedule)

    error_kind: Optional[str] = None
    error = ""
    try:
        cluster.run_scripts(_scripts(plan), max_time=plan.max_time)
        cluster.settle(max(plan.settle, plan.handoff * 2))
    except OperationFailedError as exc:
        error_kind, error = "liveness", str(exc)
    except Exception as exc:  # noqa: BLE001 - the oracle wants *any* raise
        error_kind, error = "exception", f"{type(exc).__name__}: {exc}"

    verdicts = _run_shard_oracle_battery(
        cluster, plan, error_kind=error_kind, error=error
    )
    stats = {
        "ops": cluster.total_ops(),
        "epochs": {s: cluster.directory.epoch(s) for s in cluster.shard_ids},
        "epoch_changes": sum(
            n.client.epoch_changes for n in cluster.routers.values()
        ),
        "refreshes": sum(
            n.client.refreshes for n in cluster.routers.values()
        ),
        "stale_replies": sum(
            n.client.stale_replies for n in cluster.routers.values()
        ),
    }
    return ShardEpisodeResult(plan=plan, verdicts=verdicts, stats=stats)


def _run_shard_oracle_battery(
    cluster: ShardCluster,
    plan: ShardEpisodePlan,
    *,
    error_kind: Optional[str],
    error: str,
) -> dict[str, OracleVerdict]:
    """The seven single-group oracles applied per object, plus
    ``epoch-agreement``.

    Shard episodes schedule no Byzantine clients (the adversary here is
    the reconfiguration itself racing faults and traffic), so the
    ``lurking-bound`` oracle passes vacuously and ``bft-linearizable``
    runs with an empty bad-client set.
    """
    verdicts = _error_verdicts(error_kind, error)
    protocol = Variant.coerce(plan.variant).protocol

    bad_objs = []
    histories = cluster.merged_histories()
    for obj, history in sorted(histories.items()):
        result = check_bft_linearizable(history, max_b=protocol.max_b, obj=obj)
        if not result.ok:
            bad_objs.append(f"{obj}: {result.violation}")
    verdicts["bft-linearizable"] = OracleVerdict(
        "bft-linearizable", not bad_objs, "; ".join(bad_objs)
    )
    verdicts["lurking-bound"] = OracleVerdict(
        "lurking-bound", True, "no Byzantine clients in shard episodes"
    )

    lemma_violations: list[str] = []
    #: Every live, ready member's per-object state machine, labelled
    #: ``shard/obj/node`` — what the single-group oracles judge.
    states_by_label: dict[str, Any] = {}
    max_prepared = protocol.max_prepared
    for shard in cluster.shard_ids:
        members = [r for r in cluster.live_members(shard) if r.ready]
        objs = set()
        for member in members:
            objs |= member.inner.objects
        for obj in sorted(objs):
            states = [
                m.inner.object_state(obj)
                for m in members
                if obj in m.inner.objects
            ]
            if states:
                report = check_lemma1(
                    states, f=plan.f, max_prepared_per_client=max_prepared
                )
                lemma_violations.extend(
                    f"{shard}/{obj}: {v}" for v in report.violations
                )
            for state in states:
                states_by_label[f"{shard}/{obj}/{state.node_id}"] = state
    verdicts["lemma1"] = OracleVerdict(
        "lemma1", not lemma_violations, "; ".join(lemma_violations)
    )
    verdicts["recovery-fingerprint"] = _check_recovery(states_by_label)
    verdicts["wal-integrity"] = _check_wal(states_by_label)
    # Shard plans schedule no state-corruption faults (the adversary here
    # is reconfiguration), so stabilization reduces to "nobody quarantined".
    quarantined = [
        label
        for label, state in states_by_label.items()
        if getattr(state, "quarantined", False)
    ]
    verdicts["stabilization"] = OracleVerdict(
        "stabilization",
        not quarantined,
        "; ".join(quarantined) if quarantined else (
            "no corruption faults in shard episodes"
        ),
    )
    verdicts["epoch-agreement"] = check_epoch_agreement(cluster)
    return verdicts
