"""Seed-derived episode plans: the declarative half of the chaos engine.

An :class:`EpisodePlan` is a fully declarative, JSON-serialisable
description of one adversarial run — protocol variant, link profile
(including the :attr:`~repro.net.simnet.LinkProfile.reorder_rate` knob),
store kind, fault schedule, Byzantine replica substitutions, an optional
Byzantine client attack, and the correct-client workload.  Everything the
engine does is a pure function of the plan, which is what makes campaigns
reproducible from a single integer seed, lets the minimizer shrink a plan
by deleting fault specs, and lets a violation be checked in as a replayable
JSON artifact.

:func:`generate_plan` derives episode ``i`` of a campaign from
``random.Random(f"chaos/{seed}/{i}")``, so any episode can be regenerated
without replaying the campaign prefix.  Generated plans always stay within
the fault assumptions of §2: at most ``f`` replicas are Byzantine or down
at any instant, every partition heals, and ``drop_rate < 1`` preserves
fair-loss — so a correct protocol must pass every oracle on every
generated episode, and a violation is always a finding.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.config import Protocol, Variant
from repro.errors import SimulationError
from repro.net.simnet import LinkProfile
from repro.sim.faults import FaultSchedule

__all__ = [
    "PLAN_FORMAT",
    "REPLICA_BEHAVIOURS",
    "CLIENT_ATTACKS",
    "EpisodePlan",
    "CampaignConfig",
    "generate_plan",
    "build_schedule",
]

#: Format tag written into serialised plans and artifacts.
PLAN_FORMAT = "repro-chaos/1"

#: Byzantine replica substitutions the generator may draw, by catalogue
#: name (all constructors are ``(node_id, config)``, usable directly as
#: :attr:`~repro.sim.runner.ClusterOptions.replica_overrides` factories).
REPLICA_BEHAVIOURS = (
    "crashed",
    "stale",
    "promiscuous",
    "corrupting",
    "forging",
    "delaying",
    "two-faced",
)

#: Byzantine client attacks the generator may draw, per variant.  Each
#: attack is only scheduled on the variant whose §3.2/§6.3 analysis it
#: exercises, so its done-condition is known to terminate there.
CLIENT_ATTACKS: dict[str, tuple[str, ...]] = {
    "base": ("equivocation", "ts-exhaustion", "partial-write", "lurking", "chain"),
    "optimized": ("lurking-optimized",),
    "fastpath": ("lurking-fast",),
    "strong": ("chain",),
}

#: Bound that Definition 1 imposes on one bad client's lurking writes,
#: per variant (Theorem 1 / Theorem 2): a view of each declared
#: :attr:`~repro.core.config.Protocol.max_b`.
MAX_B = {variant.value: variant.protocol.max_b for variant in Variant}


@dataclass
class EpisodePlan:
    """One declarative chaos episode (JSON-serialisable, minimizer-shrinkable)."""

    episode: int
    seed: int
    variant: str = "base"
    f: int = 1
    #: :class:`~repro.net.simnet.LinkProfile` keyword arguments.
    profile: dict[str, float] = field(default_factory=dict)
    #: "memory" (volatile) or "filelog" (durable WAL; required for
    #: crash_restart faults, which rebuild replicas from their stores).
    store: str = "memory"
    #: Declarative fault specs, each ``{"op": ..., "time": ..., ...}``;
    #: see :func:`build_schedule` for the accepted shapes.
    faults: list[dict[str, Any]] = field(default_factory=list)
    #: Replica index (as a string, JSON keys are strings) -> behaviour
    #: name from :data:`REPLICA_BEHAVIOURS`.
    byzantine_replicas: dict[str, str] = field(default_factory=dict)
    #: Byzantine client attack name from :data:`CLIENT_ATTACKS`, or None.
    attack: Optional[str] = None
    clients: int = 2
    ops_per_client: int = 4
    write_fraction: float = 0.6
    think_time: float = 0.0
    stagger: float = 0.05
    max_time: float = 120.0
    #: Virtual seconds between periodic replica self-audits (the detection
    #: half of the self-stabilization loop); 0 disables auditing.  Old
    #: artifacts without this key default to the standard cadence.
    audit_interval: float = 0.25

    def link_profile(self) -> LinkProfile:
        return LinkProfile(**self.profile)

    @property
    def protocol(self) -> Protocol:
        """The declared protocol of this episode's variant: its lurking and
        Lemma-1 bounds."""
        return Variant.coerce(self.variant).protocol

    def replace(self, **changes: Any) -> "EpisodePlan":
        """A copy with ``changes`` applied (lists/dicts deep enough to share
        nothing mutable with the original)."""
        plan = dataclasses.replace(self)
        plan.profile = dict(self.profile)
        plan.faults = [dict(spec) for spec in self.faults]
        plan.byzantine_replicas = dict(self.byzantine_replicas)
        for key, value in changes.items():
            setattr(plan, key, value)
        return plan

    def to_json(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["format"] = PLAN_FORMAT
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "EpisodePlan":
        payload = dict(data)
        fmt = payload.pop("format", PLAN_FORMAT)
        if fmt != PLAN_FORMAT:
            raise SimulationError(f"unsupported plan format {fmt!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise SimulationError(f"unknown plan fields {sorted(unknown)}")
        return cls(**payload)


@dataclass
class CampaignConfig:
    """Knobs of one campaign: everything else derives from ``seed``."""

    seed: int = 0
    episodes: int = 25
    f: int = 1
    variants: tuple[str, ...] = ("base", "optimized", "strong", "fastpath")
    ops_per_client: int = 4
    max_clients: int = 3
    #: Store kinds the generator may draw ("memory", "filelog").
    stores: tuple[str, ...] = ("memory", "filelog")
    #: Allow Byzantine replica substitutions / client attacks.
    byzantine: bool = True
    attacks: bool = True
    #: Allow state-corruption faults (WAL bit rot, snapshot truncation,
    #: in-memory perturbation); victims count against the same budget f.
    corruption: bool = True
    max_time: float = 120.0


def _node(index: int) -> str:
    return f"replica:{index}"


def generate_plan(config: CampaignConfig, episode: int) -> EpisodePlan:
    """Derive episode ``episode`` of the campaign, independent of the rest."""
    rng = random.Random(f"chaos/{config.seed}/{episode}")
    variant = config.variants[episode % len(config.variants)]
    f = config.f
    n = 3 * f + 1
    store = rng.choice(config.stores)

    profile = {
        "min_delay": 0.001,
        "max_delay": rng.choice([0.01, 0.02, 0.05]),
        "drop_rate": rng.choice([0.0, 0.02, 0.05, 0.10]),
        "duplicate_rate": rng.choice([0.0, 0.02, 0.05]),
        "corrupt_rate": rng.choice([0.0, 0.0, 0.01]),
        "reorder_rate": rng.choice([0.0, 0.10, 0.25]),
    }

    # Byzantine replicas first: they count against the fault budget f for
    # the whole episode (a substituted replica never behaves correctly).
    protocol = Variant.coerce(variant).protocol
    byzantine_replicas: dict[str, str] = {}
    if config.byzantine and rng.random() < 0.4:
        behaviours = REPLICA_BEHAVIOURS + (
            ("silent-optimized",) if protocol.fast_path else ()
        )
        for index in sorted(rng.sample(range(n), rng.randint(1, f))):
            byzantine_replicas[str(index)] = rng.choice(behaviours)
    crash_budget = f - len(byzantine_replicas)

    # State corruption: a replica whose store or memory has been damaged is
    # faulty (it may answer from bad state) until the self-stabilization
    # loop quarantines and repairs it, so a corruption victim spends one
    # unit of the same budget f as a crashed or Byzantine replica — §2's
    # assumption stays "at most f replicas faulty at any instant".  WAL /
    # snapshot damage needs a durable store; memory perturbation works on
    # either store kind (the durable log is the audit's ground truth).
    faults: list[dict[str, Any]] = []
    healthy = [i for i in range(n) if str(i) not in byzantine_replicas]
    if config.corruption and crash_budget > 0 and rng.random() < 0.5:
        victim = rng.choice(healthy)
        ops = ["state_perturb"]
        if store == "filelog":
            ops += ["wal_bitflip", "snapshot_truncate"]
        op = rng.choice(ops)
        spec: dict[str, Any] = {
            "op": op,
            "time": round(rng.uniform(0.3, 1.2), 3),
            "node": _node(victim),
        }
        if op == "wal_bitflip":
            spec["position"] = round(rng.uniform(0.05, 0.95), 3)
            spec["flip"] = rng.choice([0x01, 0x10, 0x80, 0xFF])
        elif op == "snapshot_truncate":
            spec["keep"] = round(rng.uniform(0.0, 0.9), 3)
        else:
            spec["target"] = rng.choice(["data", "write_ts", "plist"])
            spec["seed"] = rng.randrange(2**16)
        faults.append(spec)
        # The victim is spoken for: it must not also be crash-scheduled
        # (that could put crash_budget + 1 replicas out at one instant).
        healthy.remove(victim)
        crash_budget -= 1

    # Crash faults: only nodes outside the Byzantine set, never more than
    # crash_budget down at once, and — matching the §2 model — volatile
    # stores only lose delivery (network crash) while durable stores may
    # lose the process itself (crash_restart rebuilds from the WAL).
    if crash_budget > 0 and rng.random() < 0.7:
        victims = rng.sample(healthy, min(crash_budget, 1 + rng.randint(0, 1)))
        at = rng.uniform(0.2, 1.5)
        for victim in victims[:crash_budget]:
            down_for = rng.uniform(0.5, 2.0)
            if store == "filelog" and rng.random() < 0.7:
                faults.append(
                    {
                        "op": "crash_restart",
                        "time": round(at, 3),
                        "node": _node(victim),
                        "down_for": round(down_for, 3),
                    }
                )
            else:
                faults.append(
                    {"op": "crash", "time": round(at, 3), "node": _node(victim)}
                )
                faults.append(
                    {
                        "op": "recover",
                        "time": round(at + down_for, 3),
                        "node": _node(victim),
                    }
                )
            # Sequential windows keep at most crash_budget nodes down.
            at += down_for + rng.uniform(0.2, 1.0)

    # Partitions: cut one client-replica or replica-replica pair, always
    # healed before the end so fair-loss liveness holds.
    if rng.random() < 0.5:
        a = _node(rng.choice(healthy))
        b = f"client:w{rng.randrange(config.max_clients)}"
        if rng.random() < 0.3 and len(healthy) > 1:
            b = _node(rng.choice([i for i in healthy if _node(i) != a]))
        start = rng.uniform(0.1, 1.0)
        faults.append({"op": "partition", "time": round(start, 3), "a": a, "b": b})
        faults.append(
            {
                "op": "heal",
                "time": round(start + rng.uniform(0.3, 1.5), 3),
                "a": a,
                "b": b,
            }
        )

    # Link degradation: make one directed link nastier than the ambient
    # profile for the rest of the episode.
    if rng.random() < 0.5:
        src = f"client:w{rng.randrange(config.max_clients)}"
        dst = _node(rng.choice(range(n)))
        if rng.random() < 0.5:
            src, dst = dst, src
        faults.append(
            {
                "op": "degrade",
                "time": round(rng.uniform(0.1, 1.0), 3),
                "src": src,
                "dst": dst,
                "profile": {
                    "min_delay": 0.002,
                    "max_delay": rng.choice([0.05, 0.10]),
                    "drop_rate": rng.choice([0.10, 0.25]),
                    "duplicate_rate": rng.choice([0.0, 0.10]),
                    "reorder_rate": rng.choice([0.0, 0.25, 0.5]),
                },
            }
        )

    # Fallback-forcing fault (variants with MAC-only rounds): filter those
    # request kinds inbound at f+1 replicas for a window, so the fast quorum
    # of 2f+1 is unreachable and clients must demote to the signed protocol;
    # the heal lets later operations take the fast path again.  Blocks only
    # the declared fast kinds, so the signed fallback always makes progress.
    if protocol.fast_kinds and rng.random() < 0.6:
        victims = rng.sample(range(n), f + 1)
        start = rng.uniform(0.0, 0.5)
        heal_at = start + rng.uniform(0.5, 1.5)
        for victim in victims:
            faults.append(
                {
                    "op": "block_kinds",
                    "time": round(start, 3),
                    "node": _node(victim),
                    "kinds": list(protocol.fast_kinds),
                }
            )
            faults.append(
                {
                    "op": "unblock_kinds",
                    "time": round(heal_at, 3),
                    "node": _node(victim),
                }
            )

    attack = None
    if config.attacks and rng.random() < 0.3:
        attack = rng.choice(CLIENT_ATTACKS[str(variant)])

    return EpisodePlan(
        episode=episode,
        seed=rng.randrange(2**31),
        variant=str(variant),
        f=f,
        profile=profile,
        store=store,
        faults=faults,
        byzantine_replicas=byzantine_replicas,
        attack=attack,
        clients=rng.randint(1, config.max_clients),
        ops_per_client=config.ops_per_client,
        write_fraction=rng.choice([0.4, 0.5, 0.6, 0.8]),
        think_time=rng.choice([0.0, 0.01]),
        stagger=rng.choice([0.0, 0.05, 0.1]),
        max_time=config.max_time,
    )


def build_schedule(faults: list[dict[str, Any]]) -> FaultSchedule:
    """Materialise declarative fault specs into a :class:`FaultSchedule`.

    Accepted shapes (times are virtual seconds)::

        {"op": "crash",         "time": t, "node": id}
        {"op": "recover",       "time": t, "node": id}
        {"op": "crash_restart", "time": t, "node": id, "down_for": d}
        {"op": "partition",     "time": t, "a": id, "b": id}
        {"op": "heal",          "time": t, "a": id, "b": id}
        {"op": "degrade",       "time": t, "src": id, "dst": id,
         "profile": {LinkProfile kwargs}}
        {"op": "block_kinds",   "time": t, "node": id, "kinds": [KIND, ...]}
        {"op": "unblock_kinds", "time": t, "node": id[, "kinds": [...]]}
        {"op": "wal_bitflip",   "time": t, "node": id[, "position": p][, "flip": m]}
        {"op": "snapshot_truncate", "time": t, "node": id[, "keep": k]}
        {"op": "state_perturb", "time": t, "node": id[, "target": s][, "seed": i]}
    """
    schedule = FaultSchedule()
    for spec in faults:
        op = spec.get("op")
        if op == "crash":
            schedule.crash(spec["time"], spec["node"])
        elif op == "recover":
            schedule.recover(spec["time"], spec["node"])
        elif op == "crash_restart":
            schedule.crash_restart(
                spec["time"], spec["node"], down_for=spec["down_for"]
            )
        elif op == "partition":
            schedule.partition(spec["time"], spec["a"], spec["b"])
        elif op == "heal":
            schedule.heal(spec["time"], spec["a"], spec["b"])
        elif op == "degrade":
            schedule.degrade_link(
                spec["time"],
                spec["src"],
                spec["dst"],
                LinkProfile(**spec["profile"]),
            )
        elif op == "block_kinds":
            schedule.block_kinds(spec["time"], spec["node"], tuple(spec["kinds"]))
        elif op == "unblock_kinds":
            kinds = spec.get("kinds")
            schedule.unblock_kinds(
                spec["time"], spec["node"], tuple(kinds) if kinds else None
            )
        elif op == "wal_bitflip":
            schedule.wal_bitflip(
                spec["time"],
                spec["node"],
                position=spec.get("position", 0.5),
                flip=spec.get("flip", 0x01),
            )
        elif op == "snapshot_truncate":
            schedule.snapshot_truncate(
                spec["time"], spec["node"], keep=spec.get("keep", 0.5)
            )
        elif op == "state_perturb":
            schedule.state_perturb(
                spec["time"],
                spec["node"],
                target=spec.get("target", "data"),
                seed=spec.get("seed", 0),
            )
        else:
            raise SimulationError(f"unknown fault op {op!r}")
    return schedule
