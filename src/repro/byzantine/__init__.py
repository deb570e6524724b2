"""Adversaries: Byzantine clients and replicas.

The client attacks implement the four misbehaviours enumerated in §3.2 as
sans-I/O machines (:class:`Adversary`); the replica behaviours cover crash,
staleness, collusion, and fabrication.  BQS- and Phalanx-specific attacks
demonstrate that the same misbehaviours succeed against the unprotected
baselines.  :data:`ATTACKS` is the one catalogue of client attacks: the
chaos engine, the CLI and the attack-by-variant matrix all build attacks
through :func:`make_attack`; :data:`REPLICA_BEHAVIOURS` is the one
catalogue of replica substitutions.
"""

from typing import Any, Callable, Union

from repro.byzantine.adversary import ATTEMPT_TICKS, Adversary
from repro.byzantine.baseline_attacks import (
    BqsEquivocationAttack,
    BqsTimestampExhaustionAttack,
    PhalanxEquivocationAttack,
    PhalanxTimestampExhaustionAttack,
)
from repro.byzantine.clients import (
    CollusionChainAttack,
    CapturedWrite,
    Colluder,
    EquivocationAttack,
    LurkingWriteAttack,
    PartialWriteAttack,
    TimestampExhaustionAttack,
)
from repro.byzantine.replicas import (
    CorruptingReplica,
    DelayingReplica,
    TwoFacedReplica,
    CrashedReplica,
    ForgingReplica,
    PromiscuousReplica,
    SilentOptimizedReplica,
    StaleReplica,
)
from repro.core.config import SystemConfig, Variant
from repro.errors import SimulationError

__all__ = [
    "Adversary",
    "ATTEMPT_TICKS",
    "ATTACKS",
    "BASELINE_ATTACKS",
    "REPLICA_BEHAVIOURS",
    "make_attack",
    "CapturedWrite",
    "LurkingWriteAttack",
    "EquivocationAttack",
    "PartialWriteAttack",
    "TimestampExhaustionAttack",
    "Colluder",
    "CollusionChainAttack",
    "CrashedReplica",
    "SilentOptimizedReplica",
    "StaleReplica",
    "PromiscuousReplica",
    "CorruptingReplica",
    "ForgingReplica",
    "DelayingReplica",
    "TwoFacedReplica",
    "BqsEquivocationAttack",
    "BqsTimestampExhaustionAttack",
    "PhalanxEquivocationAttack",
    "PhalanxTimestampExhaustionAttack",
]

AttackFactory = Callable[..., Adversary]

#: The catalogue: §3.2 behaviour -> ``factory(node_id, config, variant)``,
#: good for every BFT-BC variant.
ATTACKS: dict[str, AttackFactory] = {
    "equivocation": EquivocationAttack,
    "ts-exhaustion": TimestampExhaustionAttack,
    "partial-write": PartialWriteAttack,
    "lurking": LurkingWriteAttack,
    "chain": CollusionChainAttack,
}

#: Byzantine replica substitutions by catalogue name: ``cls(node_id,
#: config)``, usable directly as
#: :attr:`~repro.sim.runner.ClusterOptions.replica_overrides` factories.
#: ``silent-optimized`` is the crashed replica of a variant with a fast path.
REPLICA_BEHAVIOURS: dict[str, type] = {
    "crashed": CrashedReplica,
    "stale": StaleReplica,
    "promiscuous": PromiscuousReplica,
    "corrupting": CorruptingReplica,
    "forging": ForgingReplica,
    "delaying": DelayingReplica,
    "two-faced": TwoFacedReplica,
    "silent-optimized": SilentOptimizedReplica,
}

#: Names recorded chaos plans use for what is now the one variant-driven class.
_RECORDED_NAMES = {"lurking-optimized": "lurking", "lurking-fast": "lurking"}

#: Why the behaviours built on the prepare phase have no baseline machine.
_NO_PREPARE_PHASE = {
    "partial-write": "a baseline write has no prepare certificate to withhold: "
    "installing it at one replica only is a plain crash mid-write",
    "lurking": "the baselines keep no per-client prepare list, so signed "
    "writes can be hoarded and replayed without bound: nothing to measure",
    "chain": "baseline timestamps need no predecessor certificate, so there "
    "is no chain to build: ts-exhaustion is the whole attack",
}

#: The same behaviours against the unprotected baselines:
#: ``factory(node_id, config)``, or the one-line reason there is none.
BASELINE_ATTACKS: dict[str, dict[str, Union[AttackFactory, str]]] = {
    "bqs": {
        "equivocation": BqsEquivocationAttack,
        "ts-exhaustion": BqsTimestampExhaustionAttack,
        **_NO_PREPARE_PHASE,
    },
    "phalanx": {
        "equivocation": PhalanxEquivocationAttack,
        "ts-exhaustion": PhalanxTimestampExhaustionAttack,
        **_NO_PREPARE_PHASE,
    },
}


def make_attack(
    name: str, node_id: str, config: SystemConfig, system: Any = Variant.BASE
) -> Adversary:
    """Build the catalogue's machine for ``name`` against ``system`` (a
    BFT-BC variant, ``"bqs"`` or ``"phalanx"``); raises ``SimulationError``
    for an unknown name or, with the reason, an unmountable pair."""
    name = _RECORDED_NAMES.get(name, name)
    if name not in ATTACKS:
        raise SimulationError(f"unknown attack {name!r}")
    baseline = BASELINE_ATTACKS.get(str(system))
    if baseline is None:
        return ATTACKS[name](node_id, config, system)
    entry = baseline[name]
    if isinstance(entry, str):
        raise SimulationError(f"{name} cannot be mounted on {system}: {entry}")
    return entry(node_id, config)
