"""Multi-group (sharded) cluster harness on the deterministic simulator.

Generalises :mod:`repro.sim.multi_node` from one replica group to many:
``shards`` independent 3f+1 groups share one :class:`SimNetwork` and one
virtual clock, objects are placed by a consistent-hash ring, and clients
are :class:`~repro.shard.router.ShardRouter` instances driven through
``(obj, kind, value)`` scripts by the same
:class:`~repro.sim.multi_node.MultiObjectClientNode` that drives a
single-group multi-object client.

The harness also owns the *operational* side that no protocol role can:
:meth:`ShardCluster.start_reconfiguration` spawns a joining replica node
(which bootstraps by state transfer from the old members), runs a
:class:`~repro.shard.reconfig.Reconfigurator` client against the old
membership, and lets the epoch install race whatever client traffic is in
flight — exactly the scenario the chaos layer's epoch-agreement oracle
judges.

Replica hosts take the options' ``service_delay`` (the single-server queue
of :class:`~repro.sim.nodes.ReplicaHost`), so aggregate throughput is
capacity-limited per group and grows with the number of shards — the
effect benchmark E19 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.config import SystemConfig, Variant, make_system
from repro.core.operations import Send
from repro.errors import SimulationError
from repro.net.simnet import LinkProfile, SimNetwork
from repro.shard.directory import ShardConfig, ShardDirectory
from repro.shard.reconfig import Reconfigurator
from repro.shard.replica import ShardReplica
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.sim.faults import FaultSchedule
from repro.sim.multi_node import MultiObjectClientNode, MultiScriptStep
from repro.sim.nodes import DEFAULT_RETRANSMIT_INTERVAL, MachineHost, ReplicaHost
from repro.sim.runner import SimHarness
from repro.sim.scheduler import Scheduler
from repro.spec.histories import History
from repro.storage import ReplicaStore

__all__ = [
    "ShardClusterOptions",
    "ShardCluster",
    "ShardReplicaNode",
    "ReconfiguratorNode",
    "build_shard_cluster",
]

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
    retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL
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


class ShardReplicaNode(ReplicaHost):
    """Hosts one :class:`ShardReplica`; a joining one also drives its
    bootstrap (state transfer from the old members) until it is ready."""

    replica: ShardReplica
    scheduler: Scheduler

    def __init__(
        self,
        replica: ShardReplica,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        service_delay: float = 0.0,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ) -> None:
        super().__init__(replica, network, scheduler, service_delay=service_delay)
        self.retransmit_interval = retransmit_interval

    def start_bootstrap(self) -> None:
        self._send_all(self.replica.begin_bootstrap())
        self.scheduler.call_later(self.retransmit_interval, self._boot_tick)

    def _boot_tick(self) -> None:
        if self.down or self.replica.ready:
            return
        self._send_all(self.replica.bootstrap_retransmit())
        self.scheduler.call_later(self.retransmit_interval, self._boot_tick)


class ReconfiguratorNode(MachineHost):
    """Runs one :class:`Reconfigurator` over the simulated network.

    Each tick waits until the joining replica finished its state transfer,
    then drives the sign/install phases until the new epoch is durable.
    """

    machine: Reconfigurator

    def __init__(
        self,
        reconfigurator: Reconfigurator,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        remove: str,
        add: str,
        joiner: Optional[ShardReplicaNode] = None,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ) -> None:
        super().__init__(
            reconfigurator, network, scheduler,
            retransmit_interval=retransmit_interval,
        )
        self.remove = remove
        self.add = add
        self.joiner = joiner

    def start(self) -> None:
        # The first readiness check is an event of its own, queued behind
        # whatever else is due at this instant.
        self.scheduler.call_later(0.0, lambda: self.begin(self._retransmit()))

    def _retransmit(self) -> list[Send]:
        if self.machine.phase != "idle":
            return self.machine.retransmit()
        if self.joiner is None or self.joiner.replica.ready:
            return self.machine.begin_replace(self.remove, self.add)
        return []


class ShardCluster(SimHarness):
    """A fully wired sharded deployment on the deterministic simulator."""

    def __init__(self, options: ShardClusterOptions) -> None:
        super().__init__(profile=options.profile, seed=options.seed)
        self.options = options
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
        self.routers: dict[str, MultiObjectClientNode] = {}
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
    ) -> MultiObjectClientNode:
        self.template.registry.register(f"client:{name}")
        router = ShardRouter(
            f"client:{name}",
            self.ring,
            self._fresh_directory(),
            self.template,
            client_cls=self.options.variant.client_cls,
        )
        node = MultiObjectClientNode(
            router,
            self.network,
            self.scheduler,
            max_in_flight=max_in_flight,
            record_history=record_history,
            retransmit_interval=self.options.retransmit_interval,
        )
        self.routers[router.node_id] = self._track(node)
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
        self._track(reconfigurator)
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
            and not self.replica_nodes[member].down
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
