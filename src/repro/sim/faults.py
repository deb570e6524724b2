"""Declarative fault schedules for the simulated network.

A :class:`FaultSchedule` is a list of timed actions (crash, recover,
partition, heal, degrade a link) applied to a :class:`~repro.net.simnet.SimNetwork`
when the simulation reaches the given virtual time.  Experiments use these to
exercise the asynchrony and fault assumptions of §2 without hand-writing
scheduler callbacks.

Network-level :meth:`FaultSchedule.crash` merely stops delivery — the
replica's in-memory state survives, modelling a partition-style outage.
Node-level :meth:`FaultSchedule.crash_restart` goes further: it fires the
:class:`~repro.sim.nodes.ReplicaNode` crash/restart path, which destroys the
replica object and rebuilds it from its
:class:`~repro.storage.ReplicaStore` — the schedule that crash-recovery
experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.core.persistence import DURABLE_FIELDS
from repro.errors import SimulationError
from repro.net.simnet import LinkProfile, SimNetwork
from repro.sim.scheduler import Scheduler

__all__ = ["FaultAction", "NodeFaultAction", "ClusterFaultAction", "FaultSchedule"]


@dataclass(frozen=True)
class FaultAction:
    """One timed fault-injection step."""

    time: float
    description: str
    apply: Callable[[SimNetwork], None]


@dataclass(frozen=True)
class NodeFaultAction:
    """A timed step that acts on a :class:`~repro.sim.nodes.ReplicaNode`.

    Unlike :class:`FaultAction` these need the node adapter, not just the
    network, because they destroy and rebuild the replica state machine.
    """

    time: float
    description: str
    node_id: str
    apply: Callable[[Any], None]


@dataclass(frozen=True)
class ClusterFaultAction:
    """A timed step that acts on a whole cluster harness.

    Reconfiguration is the motivating case: replacing a shard member needs
    the cluster (to spawn the joining node and the reconfigurator), not any
    single node or the bare network.
    """

    time: float
    description: str
    apply: Callable[[Any], None]


@dataclass
class FaultSchedule:
    """A composable schedule of fault actions.

    A schedule is built once (the ``crash``/``partition``/… builders all
    return ``self`` for chaining), validated as it is built, and installed
    exactly once: :meth:`install` arms every action and raises
    :class:`~repro.errors.SimulationError` on a second call — arming the
    same actions twice would double-fire every fault.  Overlapping
    :meth:`crash_restart` windows for one node are rejected at build time:
    a restart scheduled while the node is still down from an earlier
    crash would bring it back early and silently change the experiment.
    """

    actions: list[FaultAction] = field(default_factory=list)
    node_actions: list[NodeFaultAction] = field(default_factory=list)
    cluster_actions: list[ClusterFaultAction] = field(default_factory=list)
    #: Down-windows per node, ``node_id -> [(crash_time, restart_time)]``,
    #: maintained by :meth:`crash_restart` for overlap validation.
    _down_windows: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _installed: bool = field(default=False, init=False, repr=False, compare=False)

    def crash(self, time: float, node_id: str) -> "FaultSchedule":
        self.actions.append(
            FaultAction(time, f"crash {node_id}", lambda net: net.crash(node_id))
        )
        return self

    def recover(self, time: float, node_id: str) -> "FaultSchedule":
        self.actions.append(
            FaultAction(time, f"recover {node_id}", lambda net: net.recover(node_id))
        )
        return self

    def partition(self, time: float, a: str, b: str) -> "FaultSchedule":
        self.actions.append(
            FaultAction(time, f"partition {a} | {b}", lambda net: net.partition(a, b))
        )
        return self

    def heal(self, time: float, a: str, b: str) -> "FaultSchedule":
        self.actions.append(
            FaultAction(time, f"heal {a} | {b}", lambda net: net.heal(a, b))
        )
        return self

    def block_kinds(
        self, time: float, dst: str, kinds: tuple[str, ...]
    ) -> "FaultSchedule":
        """Drop inbound messages of the given KINDs at ``dst`` from ``time``
        on.  The fastpath chaos scenarios use this to filter FAST-PREP /
        FAST-WRITE traffic and force clients onto the signed fallback."""
        self.actions.append(
            FaultAction(
                time,
                f"block {','.join(kinds)} -> {dst}",
                lambda net: net.block_kinds(dst, kinds),
            )
        )
        return self

    def unblock_kinds(
        self, time: float, dst: str, kinds: Optional[tuple[str, ...]] = None
    ) -> "FaultSchedule":
        """Heal a selective kind-block at ``dst`` (all kinds when None)."""
        self.actions.append(
            FaultAction(
                time,
                f"unblock {','.join(kinds) if kinds else '*'} -> {dst}",
                lambda net: net.unblock_kinds(dst, kinds),
            )
        )
        return self

    def degrade_link(
        self, time: float, src: str, dst: str, profile: LinkProfile
    ) -> "FaultSchedule":
        self.actions.append(
            FaultAction(
                time,
                f"degrade {src}->{dst}",
                lambda net: net.set_link_profile(src, dst, profile),
            )
        )
        return self

    def crash_restart(
        self, time: float, node_id: str, *, down_for: float
    ) -> "FaultSchedule":
        """Crash ``node_id`` at ``time`` (losing volatile state) and restart
        it ``down_for`` later, recovering from its store.

        Raises:
            SimulationError: if ``down_for`` is not positive, or the new
                down-window ``[time, time + down_for)`` overlaps an earlier
                crash_restart window for the same node (the restart would
                fire while the node is still down from the other crash).
        """
        if down_for <= 0:
            raise SimulationError(
                f"crash_restart down_for must be positive, got {down_for}"
            )
        window = (time, time + down_for)
        for start, end in self._down_windows.get(node_id, ()):
            if window[0] < end and start < window[1]:
                raise SimulationError(
                    f"crash_restart window [{window[0]}, {window[1]}) for "
                    f"{node_id!r} overlaps existing down-window "
                    f"[{start}, {end})"
                )
        self._down_windows.setdefault(node_id, []).append(window)
        self.node_actions.append(
            NodeFaultAction(
                time, f"crash {node_id}", node_id, lambda node: node.crash()
            )
        )
        self.node_actions.append(
            NodeFaultAction(
                time + down_for,
                f"restart {node_id}",
                node_id,
                lambda node: node.restart(),
            )
        )
        return self

    def wal_bitflip(
        self, time: float, node_id: str, *, position: float = 0.5, flip: int = 0x01
    ) -> "FaultSchedule":
        """XOR one byte of ``node_id``'s on-disk WAL at ``time``.

        ``position`` is a fraction of the file size at fire time (robust to
        the log growing between plan generation and injection); ``flip`` is
        the XOR mask.  Models bit rot: the live replica keeps running on
        its in-memory state until a self-audit or restart replays the log
        and the integrity seal exposes the damage.  Requires a file-backed
        store (no-op on a volatile one).
        """
        if not 0.0 <= position <= 1.0:
            raise SimulationError(
                f"wal_bitflip position must be in [0, 1], got {position}"
            )
        if not 1 <= flip <= 0xFF:
            raise SimulationError(
                f"wal_bitflip mask must be a non-zero byte, got {flip}"
            )
        self.node_actions.append(
            NodeFaultAction(
                time,
                f"wal_bitflip {node_id} @{position:.2f}",
                node_id,
                lambda node: node.corrupt_wal(position=position, flip=flip),
            )
        )
        return self

    def snapshot_truncate(
        self, time: float, node_id: str, *, keep: float = 0.5
    ) -> "FaultSchedule":
        """Truncate ``node_id``'s on-disk snapshot to a ``keep`` fraction.

        Models a partially-written or rotted snapshot file; the checksum
        footer fails on the next load and recovery falls back to the
        previous generation or WAL-only replay.  Requires a file-backed
        store (no-op on a volatile one).
        """
        if not 0.0 <= keep < 1.0:
            raise SimulationError(
                f"snapshot_truncate keep must be in [0, 1), got {keep}"
            )
        self.node_actions.append(
            NodeFaultAction(
                time,
                f"snapshot_truncate {node_id} keep={keep:.2f}",
                node_id,
                lambda node: node.corrupt_snapshot(keep=keep),
            )
        )
        return self

    def state_perturb(
        self, time: float, node_id: str, *, target: str = "data", seed: int = 0
    ) -> "FaultSchedule":
        """Mutate one durable field of ``node_id``'s *live* in-memory state.

        Models a memory fault: the durable log still holds the truth, so a
        periodic self-audit (replaying the store into a twin) detects the
        divergence and quarantines the replica.  ``target`` names any
        declared durable field, e.g. ``data`` (the object value replaced),
        ``write_ts`` (regressed to zero) or ``plist`` (prepare list
        forgotten).
        """
        names = [durable.name for durable in DURABLE_FIELDS]
        if target not in names:
            raise SimulationError(
                f"state_perturb target must be one of {names}, got {target!r}"
            )
        self.node_actions.append(
            NodeFaultAction(
                time,
                f"state_perturb {node_id} {target}",
                node_id,
                lambda node: node.perturb_state(target=target, seed=seed),
            )
        )
        return self

    def reconfigure(
        self,
        time: float,
        shard: str,
        *,
        remove: str,
        add: str,
        crash_old: bool = False,
    ) -> "FaultSchedule":
        """Replace member ``remove`` of ``shard`` with a fresh node ``add``.

        Fires ``cluster.start_reconfiguration(...)`` at ``time``: the
        cluster harness spawns the joining replica (which bootstraps by
        state transfer), runs a reconfigurator client against the old
        membership, and installs the successor epoch under whatever traffic
        is in flight.  With ``crash_old`` the removed member is crashed at
        the same instant — the "replace a dead replica" scenario.
        """
        self.cluster_actions.append(
            ClusterFaultAction(
                time,
                f"reconfigure {shard}: {remove} -> {add}"
                + (" (crash old)" if crash_old else ""),
                lambda cluster: cluster.start_reconfiguration(
                    shard, remove=remove, add=add, crash_old=crash_old
                ),
            )
        )
        return self

    def install(
        self,
        scheduler: Scheduler,
        network: SimNetwork,
        nodes: Optional[Mapping[str, Any]] = None,
        cluster: Optional[Any] = None,
    ) -> None:
        """Arm every action on the scheduler.

        ``nodes`` maps node id to :class:`~repro.sim.nodes.ReplicaNode` and
        is required whenever the schedule contains node-level actions;
        ``cluster`` is required for cluster-level actions (reconfiguration).

        Ordering is explicit: network actions are armed before node
        actions, then cluster actions, and within each list actions fire in
        time order with same-time ties resolved by the order they were
        added to the schedule.  A schedule installs exactly once; a second
        call raises (it would arm — and fire — every action twice).
        """
        if self._installed:
            raise SimulationError(
                "fault schedule is already installed; installing twice "
                "would fire every action twice"
            )
        # Validate everything before arming anything, so a failed install
        # leaves neither half-armed actions nor a spent schedule behind.
        if self.node_actions and nodes is None:
            raise SimulationError(
                "schedule has node-level actions but no nodes were supplied"
            )
        if self.cluster_actions and cluster is None:
            raise SimulationError(
                "schedule has cluster-level actions but no cluster was supplied"
            )
        for node_action in self.node_actions:
            if node_action.node_id not in (nodes or {}):
                raise SimulationError(
                    f"unknown node {node_action.node_id!r} in fault schedule"
                )
        self._installed = True
        for action in sorted(self.actions, key=lambda a: a.time):
            scheduler.call_at(
                action.time, lambda a=action: a.apply(network)
            )
        for node_action in sorted(self.node_actions, key=lambda a: a.time):
            scheduler.call_at(
                node_action.time,
                lambda a=node_action: a.apply(nodes[a.node_id]),  # type: ignore[index]
            )
        for cluster_action in sorted(self.cluster_actions, key=lambda a: a.time):
            scheduler.call_at(
                cluster_action.time,
                lambda a=cluster_action: a.apply(cluster),
            )
