"""The fault catalogue and declarative fault schedules for the simulator.

Every fault the harness can inject is declared once, as a :class:`FaultOp`
in :data:`FAULT_OPS`: its name, what it acts on (the network, one replica
node, or the whole cluster), its parameters with their defaults and range
checks, the description its firing is logged under, and whether it damages
replica state.  A fault *spec* is a plain dict naming a declared op, a
virtual time and the parameters its author wrote::

    {"op": "crash_restart", "time": 1.0, "node": "replica:2", "down_for": 0.5}

A :class:`FaultSchedule` is a list of such specs, validated against the
catalogue as they are added and armed from it on install.  Chaos plans,
artifacts and the campaigns store specs verbatim, so adding an op to the
catalogue is all it takes to validate, serialise, arm, fire and log it.

Network-level ``crash`` merely stops delivery — the replica's in-memory
state survives, modelling a partition-style outage.  Node-level
``crash_restart`` goes further: it fires the
:class:`~repro.sim.nodes.ReplicaNode` crash/restart path, which destroys the
replica object and rebuilds it from its :class:`~repro.storage.ReplicaStore`
— the schedule that crash-recovery experiments use.  The ops declared
``damages_state`` (WAL bit rot, snapshot truncation, in-memory
perturbation) are what the self-stabilization loop must detect and repair.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from repro.core.persistence import DURABLE_FIELDS
from repro.errors import SimulationError
from repro.net.simnet import LinkProfile, SimNetwork
from repro.sim.scheduler import Scheduler

__all__ = [
    "FaultParam",
    "FaultOp",
    "FAULT_OPS",
    "FaultStep",
    "FaultSchedule",
    "damaged_nodes",
]

#: What an op acts on, in arming order: the network, one replica node
#: (named by the spec's ``node``), or the cluster harness.
ACTS_ON = ("network", "node", "cluster")

#: The default of a parameter the spec must give.
REQUIRED: Any = inspect.Parameter.empty


@dataclass(frozen=True)
class FaultParam:
    """One parameter of a fault op: its spec key, default and range check.

    ``check`` is ``(predicate, rule)``; a value the predicate rejects fails
    with ``"<op> <name> must <rule>, got <value>"``.
    """

    name: str
    default: Any = REQUIRED
    check: Optional[tuple[Callable[[Any], bool], str]] = field(
        default=None, repr=False
    )


@dataclass(frozen=True)
class FaultOp:
    """One declared fault: everything the harness knows about it.

    ``fire(params, target)`` acts on the network, the spec's node or the
    cluster; ``describe(params)`` is the label its firing is logged under
    (``chaos.<label>`` instrumentation events).  ``then`` is a second step
    ``(delay parameter, describe, fire)`` on the same target, fired that
    parameter's value later — ``crash_restart``'s restart; the node's
    down-windows ``[time, time + delay)`` must not overlap.
    """

    name: str
    acts_on: str
    params: tuple[FaultParam, ...]
    describe: Callable[[Mapping[str, Any]], str] = field(repr=False)
    fire: Callable[[Mapping[str, Any], Any], None] = field(repr=False)
    damages_state: bool = False
    then: Optional[tuple[str, Callable[..., str], Callable[..., None]]] = field(
        default=None, repr=False
    )

    def arguments(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        """Every declared parameter's value: the spec's, else the default."""
        return {p.name: spec.get(p.name, p.default) for p in self.params}

    def check(self, spec: Mapping[str, Any]) -> None:
        """Raise :class:`~repro.errors.SimulationError` unless ``spec`` is a
        well-formed spec of this op."""
        declared = {p.name for p in self.params}
        unknown = sorted(set(spec) - declared - {"op", "time"})
        if unknown or "time" not in spec:
            raise SimulationError(
                f"{self.name} takes time and {sorted(declared)}, got {sorted(spec)}"
            )
        for param in self.params:
            if param.name not in spec:
                if param.default is REQUIRED:
                    raise SimulationError(f"{self.name} needs {param.name}")
                continue
            value = spec[param.name]
            if param.check is not None and not param.check[0](value):
                raise SimulationError(
                    f"{self.name} {param.name} must {param.check[1]}, got {value!r}"
                )


def _link_profile(profile: Any) -> LinkProfile:
    return profile if isinstance(profile, LinkProfile) else LinkProfile(**profile)


_NODE = FaultParam("node")
_PAIR = (FaultParam("a"), FaultParam("b"))
_DURABLE_NAMES = [durable.name for durable in DURABLE_FIELDS]

#: The catalogue, by op name.
FAULT_OPS: dict[str, FaultOp] = {
    op.name: op
    for op in (
        FaultOp(
            "crash", "network", (_NODE,),
            lambda p: f"crash {p['node']}",
            lambda p, net: net.crash(p["node"]),
        ),
        FaultOp(
            "recover", "network", (_NODE,),
            lambda p: f"recover {p['node']}",
            lambda p, net: net.recover(p["node"]),
        ),
        FaultOp(
            "partition", "network", _PAIR,
            lambda p: f"partition {p['a']} | {p['b']}",
            lambda p, net: net.partition(p["a"], p["b"]),
        ),
        FaultOp(
            "heal", "network", _PAIR,
            lambda p: f"heal {p['a']} | {p['b']}",
            lambda p, net: net.heal(p["a"], p["b"]),
        ),
        # Replaces one directed link's profile (LinkProfile kwargs; a bad
        # one raises as LinkProfile does, when the spec is added).
        FaultOp(
            "degrade", "network",
            (
                FaultParam("src"), FaultParam("dst"),
                FaultParam(
                    "profile",
                    check=(lambda v: bool(_link_profile(v)), "be a LinkProfile"),
                ),
            ),
            lambda p: f"degrade {p['src']}->{p['dst']}",
            lambda p, net: net.set_link_profile(
                p["src"], p["dst"], _link_profile(p["profile"])
            ),
        ),
        # Drops inbound messages of the given KINDs at ``node``: the fastpath
        # scenarios filter the MAC-only rounds to force the signed fallback.
        FaultOp(
            "block_kinds", "network", (_NODE, FaultParam("kinds")),
            lambda p: f"block {','.join(p['kinds'])} -> {p['node']}",
            lambda p, net: net.block_kinds(p["node"], p["kinds"]),
        ),
        FaultOp(
            "unblock_kinds", "network", (_NODE, FaultParam("kinds", None)),
            lambda p: f"unblock {','.join(p['kinds']) if p['kinds'] else '*'}"
            f" -> {p['node']}",
            lambda p, net: net.unblock_kinds(p["node"], p["kinds"] or None),
        ),
        # Loses the process (and the unsynced store tail); the restart
        # rebuilds the replica from its store.
        FaultOp(
            "crash_restart", "node",
            (_NODE, FaultParam("down_for", check=(lambda v: v > 0, "be positive"))),
            lambda p: f"crash {p['node']}",
            lambda p, node: node.crash(),
            then=(
                "down_for",
                lambda p: f"restart {p['node']}",
                lambda p, node: node.restart(),
            ),
        ),
        # XORs the on-disk WAL byte at ``position`` (a fraction of the size
        # at fire time) with ``flip``: bit rot the next replay exposes.
        FaultOp(
            "wal_bitflip", "node",
            (
                _NODE,
                FaultParam(
                    "position", 0.5, (lambda v: 0.0 <= v <= 1.0, "be in [0, 1]")
                ),
                FaultParam(
                    "flip", 0x01, (lambda v: 1 <= v <= 0xFF, "be a non-zero byte")
                ),
            ),
            lambda p: f"wal_bitflip {p['node']} @{p['position']:.2f}",
            lambda p, node: node.corrupt_wal(position=p["position"], flip=p["flip"]),
            damages_state=True,
        ),
        # Truncates the on-disk snapshot to a ``keep`` fraction.
        FaultOp(
            "snapshot_truncate", "node",
            (
                _NODE,
                FaultParam("keep", 0.5, (lambda v: 0.0 <= v < 1.0, "be in [0, 1)")),
            ),
            lambda p: f"snapshot_truncate {p['node']} keep={p['keep']:.2f}",
            lambda p, node: node.corrupt_snapshot(keep=p["keep"]),
            damages_state=True,
        ),
        # Mutates one declared durable field of the live state; the durable
        # log still holds the truth, so a self-audit catches it.
        FaultOp(
            "state_perturb", "node",
            (
                _NODE,
                FaultParam(
                    "target", "data",
                    (lambda v: v in _DURABLE_NAMES, f"be one of {_DURABLE_NAMES}"),
                ),
                FaultParam("seed", 0),
            ),
            lambda p: f"state_perturb {p['node']} {p['target']}",
            lambda p, node: node.perturb_state(target=p["target"], seed=p["seed"]),
            damages_state=True,
        ),
        # Replaces member ``remove`` of ``shard`` with a fresh node ``add``
        # under live traffic (``crash_old``: the removed one dies first).
        FaultOp(
            "reconfigure", "cluster",
            (
                FaultParam("shard"), FaultParam("remove"), FaultParam("add"),
                FaultParam("crash_old", False),
            ),
            lambda p: f"reconfigure {p['shard']}: {p['remove']} -> {p['add']}"
            + (" (crash old)" if p["crash_old"] else ""),
            lambda p, cluster: cluster.start_reconfiguration(
                p["shard"], remove=p["remove"], add=p["add"],
                crash_old=bool(p["crash_old"]),
            ),
        ),
    )
}


def _declared(spec: Mapping[str, Any]) -> FaultOp:
    op = FAULT_OPS.get(spec.get("op", ""))
    if op is None:
        raise SimulationError(f"unknown fault op {spec.get('op')!r}")
    return op


def damaged_nodes(specs: Iterable[Mapping[str, Any]]) -> set[str]:
    """The nodes whose state ``specs`` damage (ops declared
    ``damages_state``); specs of unknown ops damage nothing."""
    return {
        spec["node"]
        for spec in specs
        if getattr(FAULT_OPS.get(spec.get("op", "")), "damages_state", False)
    }


class FaultStep(NamedTuple):
    """One timed firing a schedule arms: ``apply(target)`` at ``time``."""

    time: float
    acts_on: str
    description: str
    #: The replica node acted on (node-level steps only).
    node: Optional[str]
    apply: Callable[[Any], None]


@dataclass
class FaultSchedule:
    """A composable schedule of fault specs.

    A schedule is built once (:meth:`add` and the per-op builders, one per
    declared op — ``crash(time, node)``, ``crash_restart(time, node,
    down_for=...)``, ``degrade(time, src, dst, profile)``, … — all
    return ``self`` for chaining), validated as it is built, and installed
    exactly once: :meth:`install` arms every step and raises
    :class:`~repro.errors.SimulationError` on a second call — arming the
    same steps twice would double-fire every fault.  Overlapping
    ``crash_restart`` windows for one node are rejected at build time: a
    restart scheduled while the node is still down from an earlier crash
    would bring it back early and silently change the experiment.
    """

    specs: list[dict[str, Any]] = field(default_factory=list)
    #: Down-windows per node, ``node_id -> [(crash_time, restart_time)]``,
    #: for overlap validation of two-step ops.
    _down_windows: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _installed: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        specs, self.specs = self.specs, []
        for spec in specs:
            self._append(dict(spec))

    def add(self, op: str, time: float, **params: Any) -> "FaultSchedule":
        """Append a spec of the declared ``op`` holding ``params`` as given
        (defaults are applied when it fires, not stored)."""
        declared = _declared({"op": op})
        # Declared order; an undeclared name is kept for the check to reject.
        spec = {"op": op, "time": time}
        spec.update(
            (p.name, params[p.name]) for p in declared.params if p.name in params
        )
        spec.update(params)
        return self._append(spec)

    def _append(self, spec: dict[str, Any]) -> "FaultSchedule":
        op = _declared(spec)
        op.check(spec)
        if op.then is not None:
            start = spec["time"]
            window = (start, start + op.arguments(spec)[op.then[0]])
            for begin, end in self._down_windows.get(spec["node"], ()):
                if window[0] < end and begin < window[1]:
                    raise SimulationError(
                        f"{op.name} window [{window[0]}, {window[1]}) for "
                        f"{spec['node']!r} overlaps existing down-window "
                        f"[{begin}, {end})"
                    )
            self._down_windows.setdefault(spec["node"], []).append(window)
        self.specs.append(spec)
        return self

    def steps(self) -> list[FaultStep]:
        """Every timed firing, in arming order: network steps, then node
        steps, then cluster steps, each by time with same-time ties in the
        order the specs were added."""
        steps = []
        for spec in self.specs:
            op = FAULT_OPS[spec["op"]]
            params = op.arguments(spec)
            node = params["node"] if op.acts_on == "node" else None
            stages = [(0.0, op.describe, op.fire)]
            if op.then is not None:
                delay, describe, fire = op.then
                stages.append((params[delay], describe, fire))
            steps.extend(
                FaultStep(
                    spec["time"] + delay, op.acts_on, describe(params), node,
                    partial(fire, params),
                )
                for delay, describe, fire in stages
            )
        return sorted(steps, key=lambda s: (ACTS_ON.index(s.acts_on), s.time))

    def install(
        self,
        scheduler: Scheduler,
        network: SimNetwork,
        nodes: Optional[Mapping[str, Any]] = None,
        cluster: Optional[Any] = None,
        instrumentation: Optional[Any] = None,
    ) -> None:
        """Arm every step on the scheduler.

        ``nodes`` maps node id to :class:`~repro.sim.nodes.ReplicaNode` and
        is required whenever the schedule contains node-level steps;
        ``cluster`` is required for cluster-level steps (reconfiguration).
        With ``instrumentation``, each firing first records a
        ``chaos.<description>`` event (node-level ones tagged with the node).

        Ordering is explicit (see :meth:`steps`).  A schedule installs
        exactly once; a second call raises (it would arm — and fire — every
        step twice).
        """
        if self._installed:
            raise SimulationError(
                "fault schedule is already installed; installing twice "
                "would fire every action twice"
            )
        # Validate everything before arming anything, so a failed install
        # leaves neither half-armed steps nor a spent schedule behind.
        steps = self.steps()
        acting = {step.acts_on for step in steps}
        if "node" in acting and nodes is None:
            raise SimulationError(
                "schedule has node-level actions but no nodes were supplied"
            )
        if "cluster" in acting and cluster is None:
            raise SimulationError(
                "schedule has cluster-level actions but no cluster was supplied"
            )
        for step in steps:
            if step.node is not None and step.node not in (nodes or {}):
                raise SimulationError(f"unknown node {step.node!r} in fault schedule")
        self._installed = True

        def fire(step: FaultStep) -> None:
            if instrumentation is not None:
                tags = {} if step.node is None else {"node": step.node}
                instrumentation.event(f"chaos.{step.description}", **tags)
            if step.acts_on == "node":
                step.apply(nodes[step.node])  # type: ignore[index]
            else:
                step.apply(network if step.acts_on == "network" else cluster)

        for step in steps:
            scheduler.call_at(step.time, partial(fire, step))


def _builder(op: FaultOp) -> Callable[..., FaultSchedule]:
    """``FaultSchedule.<op>(time, <params in declared order>)``."""
    signature = inspect.Signature(
        [
            inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              default=default)
            for name, default in (
                ("self", REQUIRED), ("time", REQUIRED),
                *((p.name, p.default) for p in op.params),
            )
        ]
    )

    def build(*args: Any, **kwargs: Any) -> FaultSchedule:
        given = signature.bind(*args, **kwargs).arguments
        return given.pop("self").add(op.name, **given)

    build.__signature__ = signature  # type: ignore[attr-defined]
    build.__name__ = op.name
    build.__qualname__ = f"FaultSchedule.{op.name}"
    build.__doc__ = f"Append a ``{op.name}`` spec (see :data:`FAULT_OPS`)."
    return build


for _op in FAULT_OPS.values():
    setattr(FaultSchedule, _op.name, _builder(_op))
