"""Multi-group (sharded) cluster harness on the deterministic simulator.

Generalises :mod:`repro.sim.multi_node` from one replica group to many:
``shards`` independent 3f+1 groups share one :class:`SimNetwork` and one
virtual clock, objects are placed by a consistent-hash ring, and clients
are :class:`~repro.shard.router.ShardRouter` instances driven through
``(obj, kind, value)`` scripts by :class:`ShardRouterNode`.

The harness also owns the *operational* side that no protocol role can:
:meth:`ShardCluster.start_reconfiguration` spawns a joining replica node
(which bootstraps by state transfer from the old members), runs a
:class:`~repro.shard.reconfig.Reconfigurator` client against the old
membership, and lets the epoch install race whatever client traffic is in
flight — exactly the scenario the chaos layer's epoch-agreement oracle
judges.

Replica nodes take an optional ``service_delay``: each received frame
occupies the replica for that much virtual time (a single-server queue),
so aggregate throughput is capacity-limited per group and grows with the
number of shards — the effect benchmark E19 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.config import SystemConfig, Variant, make_system
from repro.core.messages import Message
from repro.errors import OperationFailedError, SimulationError
from repro.net.simnet import LinkProfile, SimNetwork
from repro.shard.directory import ShardConfig, ShardDirectory
from repro.shard.reconfig import Reconfigurator
from repro.shard.replica import ShardReplica
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.sim.faults import FaultSchedule
from repro.sim.multi_node import MultiScriptStep
from repro.sim.scheduler import EventHandle, Scheduler
from repro.spec.histories import History, Invocation, Response
from repro.storage import ReplicaStore

__all__ = [
    "ShardClusterOptions",
    "ShardCluster",
    "ShardReplicaNode",
    "ShardRouterNode",
    "ReconfiguratorNode",
    "build_shard_cluster",
]

RETRANSMIT_INTERVAL = 0.05

#: The variants a shard group hosts.  The shard template is not built
#: ``strong``, and a joining replica's state transfer validates candidates
#: with the shared scheme only, which refuses ``fastpath``'s
#: non-transferable proof certificates — so both are refused up front.
SHARD_VARIANTS = (Variant.BASE, Variant.OPTIMIZED)


@dataclass
class ShardClusterOptions:
    """Knobs for one sharded deployment."""

    shards: int = 2
    f: int = 1
    variant: Variant = Variant.BASE
    scheme: str = "hmac"
    seed: int = 0
    profile: LinkProfile = field(default_factory=LinkProfile.reliable)
    vnodes: int = 32
    #: Seconds the superseded epoch stays serviceable after an install.
    handoff: float = 0.5
    #: Virtual-time service cost per frame at a replica (0 = infinitely
    #: fast replicas; set > 0 to model per-group capacity).
    service_delay: float = 0.0
    retransmit_interval: float = RETRANSMIT_INTERVAL
    #: ``(node_id, obj) -> ReplicaStore`` for durable per-object state;
    #: ``None`` keeps the in-memory default.
    store_factory: Optional[Callable[[str, str], ReplicaStore]] = None

    def __post_init__(self) -> None:
        try:
            self.variant = Variant.coerce(self.variant)
        except Exception:
            raise SimulationError(f"unknown variant {self.variant!r}") from None
        if self.variant not in SHARD_VARIANTS:
            raise SimulationError(
                f"variant {self.variant.value!r} is not hosted by the shard "
                f"layer; expected one of {tuple(v.value for v in SHARD_VARIANTS)}"
            )
        if self.shards < 1:
            raise SimulationError(f"need at least one shard, got {self.shards}")


def shard_id(index: int) -> str:
    return f"shard:{index}"


def member_id(shard_index: int, replica_index: int) -> str:
    return f"replica:s{shard_index}n{replica_index}"


class ShardReplicaNode:
    """Wires one :class:`ShardReplica` into the simulated network."""

    def __init__(
        self,
        replica: ShardReplica,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        service_delay: float = 0.0,
        retransmit_interval: float = RETRANSMIT_INTERVAL,
    ) -> None:
        self.replica = replica
        self.network = network
        self.scheduler = scheduler
        self.service_delay = service_delay
        self.retransmit_interval = retransmit_interval
        self.crashed = False
        self._busy_until = 0.0
        network.register(replica.node_id, self._on_message)

    @property
    def node_id(self) -> str:
        return self.replica.node_id

    def _on_message(self, src: str, message: Message) -> None:
        if self.crashed:
            return
        if self.service_delay <= 0:
            self._process(src, message)
            return
        # Single-server queue: each frame occupies the replica for
        # ``service_delay`` of virtual time, starting when the CPU frees up.
        start = max(self.scheduler.now, self._busy_until)
        self._busy_until = start + self.service_delay
        self.scheduler.call_at(
            self._busy_until, lambda: self._process(src, message)
        )

    def _process(self, src: str, message: Message) -> None:
        if self.crashed:
            return
        reply = self.replica.handle(src, message)
        if reply is not None:
            self.network.send(self.node_id, src, reply)

    def crash(self) -> None:
        """Stop the node for good (the replace-a-dead-replica scenario)."""
        self.crashed = True
        self.network.crash(self.node_id)

    # -- bootstrap (joining replicas only) ---------------------------------

    def start_bootstrap(self) -> None:
        self._send_all(self.replica.begin_bootstrap())
        self.scheduler.call_later(self.retransmit_interval, self._boot_tick)

    def _boot_tick(self) -> None:
        if self.crashed or self.replica.ready:
            return
        self._send_all(self.replica.bootstrap_retransmit())
        self.scheduler.call_later(self.retransmit_interval, self._boot_tick)

    def _send_all(self, sends) -> None:
        for send in sends:
            self.network.send(self.node_id, send.dest, send.message)


class ShardRouterNode:
    """Drives a :class:`ShardRouter` through a multi-object script.

    The same contract as
    :class:`~repro.sim.multi_node.MultiObjectClientNode`; epoch changes
    need no driver support (the router migrates in-flight operations
    itself), so the node merely counts them for the episode stats.
    """

    def __init__(
        self,
        router: ShardRouter,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        max_in_flight: int = 4,
        record_history: bool = False,
        retransmit_interval: float = RETRANSMIT_INTERVAL,
    ) -> None:
        self.router = router
        self.network = network
        self.scheduler = scheduler
        self.max_in_flight = max_in_flight
        self.retransmit_interval = retransmit_interval
        self.results: list[tuple[MultiScriptStep, Any]] = []
        self.done = True
        self.histories: dict[str, History] = {}
        self.epoch_changes = 0
        self._record = record_history
        self._pending: list[MultiScriptStep] = []
        self._in_flight: dict[str, MultiScriptStep] = {}
        self._retransmit_handle: Optional[EventHandle] = None
        router.on_epoch_change = self._on_epoch_change
        network.register(router.node_id, self._on_message)

    @property
    def node_id(self) -> str:
        return self.router.node_id

    def run_script(self, script: Sequence[MultiScriptStep]) -> None:
        self._pending = list(script)
        self.done = not self._pending
        if self._pending:
            self.scheduler.call_later(0.0, self._dispatch)
            self._arm_retransmit()

    # -- scheduling --------------------------------------------------------

    def _begin(self, step: MultiScriptStep) -> list:
        obj, kind, value = step
        if kind == "write":
            return self.router.begin_write(obj, value)
        if kind == "read":
            return self.router.begin_read(obj)
        raise ValueError(f"unknown step kind {kind!r}")

    def _dispatch(self) -> None:
        round_sends = []
        index = 0
        while (
            index < len(self._pending)
            and len(self._in_flight) < self.max_in_flight
        ):
            obj, kind, value = self._pending[index]
            if obj in self._in_flight:
                index += 1
                continue
            step = self._pending.pop(index)
            self._in_flight[obj] = step
            if self._record:
                self.histories.setdefault(obj, History()).append(
                    Invocation(
                        client=self.node_id,
                        obj=obj,
                        op=kind,
                        arg=value,
                        time=self.scheduler.now,
                    )
                )
            round_sends.extend(self._begin(step))
        self._send_all(round_sends)

    def _on_epoch_change(self, shard: str) -> None:
        self.epoch_changes += 1

    def _on_message(self, src: str, message: Message) -> None:
        self._send_all(self.router.deliver(src, message))
        completed = [
            obj for obj in list(self._in_flight) if not self.router.busy(obj)
        ]
        for obj in completed:
            step = self._in_flight.pop(obj)
            result = self.router.result(obj)
            self.results.append((step, result))
            if self._record:
                value = result if step[1] == "read" else None
                self.histories.setdefault(obj, History()).append(
                    Response(
                        client=self.node_id,
                        obj=obj,
                        value=value,
                        time=self.scheduler.now,
                    )
                )
        if completed:
            self._dispatch()
        if not self._pending and not self._in_flight:
            self.done = True
            self._cancel_retransmit()

    def _send_all(self, sends) -> None:
        for send in sends:
            self.network.send(self.node_id, send.dest, send.message)

    def _arm_retransmit(self) -> None:
        self._retransmit_handle = self.scheduler.call_later(
            self.retransmit_interval, self._retransmit
        )

    def _retransmit(self) -> None:
        if self.done:
            return
        self._send_all(self.router.retransmit())
        self._arm_retransmit()

    def _cancel_retransmit(self) -> None:
        if self._retransmit_handle is not None:
            self._retransmit_handle.cancel()
            self._retransmit_handle = None


class ReconfiguratorNode:
    """Runs one :class:`Reconfigurator` over the simulated network.

    Waits (polling the virtual clock) until the joining replica finished
    its state transfer, then drives the sign/install phases with periodic
    retransmission until the new epoch is durable.
    """

    def __init__(
        self,
        reconfigurator: Reconfigurator,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        remove: str,
        add: str,
        joiner: Optional[ShardReplicaNode] = None,
        retransmit_interval: float = RETRANSMIT_INTERVAL,
    ) -> None:
        self.reconfigurator = reconfigurator
        self.network = network
        self.scheduler = scheduler
        self.remove = remove
        self.add = add
        self.joiner = joiner
        self.retransmit_interval = retransmit_interval
        network.register(reconfigurator.node_id, self._on_message)

    @property
    def node_id(self) -> str:
        return self.reconfigurator.node_id

    @property
    def done(self) -> bool:
        return self.reconfigurator.done

    def start(self) -> None:
        self.scheduler.call_later(0.0, self._tick)

    def _on_message(self, src: str, message: Message) -> None:
        self._send_all(self.reconfigurator.deliver(src, message))

    def _tick(self) -> None:
        if self.done:
            return
        if self.reconfigurator.phase == "idle":
            if self.joiner is None or self.joiner.replica.ready:
                self._send_all(
                    self.reconfigurator.begin_replace(self.remove, self.add)
                )
        else:
            self._send_all(self.reconfigurator.retransmit())
        self.scheduler.call_later(self.retransmit_interval, self._tick)

    def _send_all(self, sends) -> None:
        for send in sends:
            self.network.send(self.node_id, send.dest, send.message)


class ShardCluster:
    """A fully wired sharded deployment on the deterministic simulator."""

    def __init__(self, options: ShardClusterOptions) -> None:
        self.options = options
        self.scheduler = Scheduler()
        self.network = SimNetwork(
            self.scheduler, profile=options.profile, seed=options.seed
        )
        #: Template carrying the shared PKI, scheme, and protocol flags;
        #: every role derives its per-shard config from this via
        #: ``dataclasses.replace``.
        self.template: SystemConfig = make_system(
            options.f,
            scheme=options.scheme,
            seed=b"shard-cluster-seed-%d" % options.seed,
        )
        self.shard_ids = tuple(shard_id(i) for i in range(options.shards))
        self.ring = HashRing(self.shard_ids, vnodes=options.vnodes)
        genesis: dict[str, ShardConfig] = {}
        for s in range(options.shards):
            members = tuple(
                member_id(s, r) for r in range(3 * options.f + 1)
            )
            for member in members:
                self.template.registry.register(member)
            genesis[shard_id(s)] = ShardConfig(
                shard=shard_id(s), epoch=0, members=members, f=options.f
            )
        self.genesis = genesis
        #: The harness's own bookkeeping directory; reconfigurators write
        #: through it, so it always holds the newest installed chain.
        self.directory = ShardDirectory(genesis, self.template.scheme)
        self.replica_nodes: dict[str, ShardReplicaNode] = {}
        self.routers: dict[str, ShardRouterNode] = {}
        self.reconfigurations: list[ReconfiguratorNode] = []
        self._reconfig_count = 0
        for shard, config in genesis.items():
            for member in config.members:
                self._spawn_replica(member, shard)

    # -- construction ------------------------------------------------------

    def _fresh_directory(self) -> ShardDirectory:
        """A fresh verified directory caught up to the installed chain."""
        directory = ShardDirectory(self.genesis, self.template.scheme)
        for sid in self.shard_ids:
            directory.install_chain(sid, self.directory.chain(sid))
        return directory

    def _spawn_replica(
        self,
        node_id: str,
        shard: str,
        *,
        bootstrap_from: Optional[ShardConfig] = None,
    ) -> ShardReplicaNode:
        store_factory = None
        if self.options.store_factory is not None:
            outer = self.options.store_factory
            store_factory = lambda obj, n=node_id: outer(n, obj)  # noqa: E731
        replica = ShardReplica(
            node_id,
            shard,
            self._fresh_directory(),
            self.template,
            replica_cls=self.options.variant.replica_cls,
            store_factory=store_factory,
            clock=lambda: self.scheduler.now,
            handoff=self.options.handoff,
            bootstrap_from=bootstrap_from,
        )
        node = ShardReplicaNode(
            replica,
            self.network,
            self.scheduler,
            service_delay=self.options.service_delay,
            retransmit_interval=self.options.retransmit_interval,
        )
        self.replica_nodes[node_id] = node
        return node

    def add_router(
        self,
        name: str,
        *,
        max_in_flight: int = 4,
        record_history: bool = True,
    ) -> ShardRouterNode:
        self.template.registry.register(f"client:{name}")
        router = ShardRouter(
            f"client:{name}",
            self.ring,
            self._fresh_directory(),
            self.template,
            client_cls=self.options.variant.client_cls,
        )
        node = ShardRouterNode(
            router,
            self.network,
            self.scheduler,
            max_in_flight=max_in_flight,
            record_history=record_history,
            retransmit_interval=self.options.retransmit_interval,
        )
        self.routers[router.node_id] = node
        return node

    # -- reconfiguration ---------------------------------------------------

    def start_reconfiguration(
        self, shard: str, *, remove: str, add: str, crash_old: bool = False
    ) -> ReconfiguratorNode:
        """Replace ``remove`` with ``add`` in ``shard`` under live traffic."""
        current = self.directory.config(shard)
        if remove not in current.members:
            raise SimulationError(f"{remove!r} not a member of {shard!r}")
        if crash_old:
            self.replica_nodes[remove].crash()
        self.template.registry.register(add)
        joiner = self._spawn_replica(
            add, shard, bootstrap_from=current
        )
        joiner.start_bootstrap()
        self._reconfig_count += 1
        reconfigurator = Reconfigurator(
            f"admin:{self._reconfig_count}",
            shard,
            self.directory,
            self.template,
            revoke_removed=crash_old,
        )
        node = ReconfiguratorNode(
            reconfigurator,
            self.network,
            self.scheduler,
            remove=remove,
            add=add,
            joiner=joiner,
            retransmit_interval=self.options.retransmit_interval,
        )
        self.reconfigurations.append(node)
        node.start()
        return node

    # -- execution ---------------------------------------------------------

    def install_faults(self, schedule: FaultSchedule) -> None:
        schedule.install(
            self.scheduler, self.network, nodes=self.replica_nodes, cluster=self
        )

    def run_scripts(
        self,
        scripts: dict[str, Sequence[MultiScriptStep]],
        *,
        max_in_flight: int = 4,
        max_time: float = 300.0,
    ) -> None:
        for name, script in scripts.items():
            node = self.routers.get(f"client:{name}") or self.add_router(
                name, max_in_flight=max_in_flight
            )
            node.run_script(script)
        self.run(max_time=max_time)

    def _all_done(self) -> bool:
        return all(node.done for node in self.routers.values()) and all(
            node.done for node in self.reconfigurations
        )

    def run(self, *, max_time: float = 300.0, max_events: int = 5_000_000) -> None:
        """Run until every script and reconfiguration completes.

        Raises:
            OperationFailedError: when the time or event budget runs out
                first — liveness failed under this schedule.
        """
        self.scheduler.run(
            until=self.scheduler.now + max_time,
            max_events=max_events,
            stop_when=self._all_done,
        )
        if not self._all_done():
            busy = [n for n, node in self.routers.items() if not node.done]
            stuck = [
                f"{node.node_id}({node.reconfigurator.phase})"
                for node in self.reconfigurations
                if not node.done
            ]
            raise OperationFailedError(
                f"shard workload incomplete after {max_time}s virtual time; "
                f"busy routers: {busy}; stuck reconfigurations: {stuck}"
            )

    def settle(self, duration: float = 1.0) -> None:
        """Advance virtual time by ``duration`` (processing pending events).

        A sentinel no-op event pins the end time: the scheduler clock only
        moves when events fire, so an empty queue would otherwise leave
        ``now`` — and clock-based handoff windows — frozen.
        """
        deadline = self.scheduler.now + duration
        self.scheduler.call_at(deadline, lambda: None)
        self.scheduler.run(until=deadline)

    # -- results -----------------------------------------------------------

    def merged_histories(self) -> dict[str, History]:
        """Per-object histories merged across every router, time-sorted."""
        merged: dict[str, list] = {}
        for node in self.routers.values():
            for obj, history in node.histories.items():
                merged.setdefault(obj, []).extend(history.events)
        out: dict[str, History] = {}
        for obj, events in merged.items():
            history = History()
            history.events = sorted(events, key=lambda e: e.time)
            out[obj] = history
        return out

    def live_members(self, shard: str) -> list[ShardReplica]:
        """The current members' live state machines (crashed ones excluded)."""
        return [
            self.replica_nodes[member].replica
            for member in self.directory.config(shard).members
            if member in self.replica_nodes
            and not self.replica_nodes[member].crashed
        ]

    def total_ops(self) -> int:
        return sum(len(node.results) for node in self.routers.values())


def build_shard_cluster(
    options: Optional[ShardClusterOptions] = None, **kwargs
) -> ShardCluster:
    """Build a sharded cluster from options or keyword overrides."""
    if options is None:
        options = ShardClusterOptions(**kwargs)
    elif kwargs:
        raise SimulationError("pass either options or keyword overrides, not both")
    return ShardCluster(options)
