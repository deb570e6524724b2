"""Cluster construction and experiment execution.

:class:`SimHarness` is the one simulated run loop: it owns the scheduler, the
network and the registry of script drivers, and every simulator-side harness
(:class:`Cluster` here, the shard cluster, the open-loop load harness) is
built on it, so they all share one ``run`` / ``settle``.

:func:`build_cluster` assembles a full deployment — quorum system, keys,
replicas (optionally substituting Byzantine ones), simulated network,
recorder, metrics — for any of the three protocol variants.  Experiments then
attach clients (correct or Byzantine), install workloads and fault schedules,
and run the deterministic scheduler until the workloads complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.config import SystemConfig, Variant, make_system
from repro.core.persistence import ClientStateBudget
from repro.core.messages import wire_cache_stats
from repro.net.simnet import LinkProfile, SimNetwork
from repro.obs.instrumentation import Instrumentation
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import MetricsCollector
from repro.sim.nodes import (
    ClientNode,
    MachineHost,
    ReplicaHost,
    ReplicaNode,
    ScriptStep,
)
from repro.sim.recorder import HistoryRecorder
from repro.sim.scheduler import Scheduler
from repro.spec.histories import History
from repro.storage import ReplicaStore
from repro.errors import OperationFailedError, SimulationError

__all__ = ["SimHarness", "ClusterOptions", "Cluster", "build_cluster", "VARIANTS"]

#: Supported protocol variant names (the values of :class:`Variant`).
VARIANTS = tuple(v.value for v in Variant)

ReplicaFactory = Callable[[str, SystemConfig], Any]


class SimHarness:
    """The one simulated run loop every harness is built on.

    Owns the virtual-time scheduler, the simulated network, the
    instrumentation clock binding and the completion registry: script
    drivers (anything with ``node_id`` and ``done``) plus extra done-checks.
    :meth:`run` advances virtual time until all of them report done.
    """

    def __init__(
        self,
        *,
        profile: Optional[LinkProfile],
        seed: int,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.scheduler = Scheduler()
        self.network = SimNetwork(self.scheduler, profile=profile, seed=seed)
        #: The run's observability handle; spans and histograms use the
        #: scheduler's virtual clock unless the caller bound another.
        self.instrumentation = instrumentation or Instrumentation.off()
        self.instrumentation.bind_clock(lambda: self.scheduler.now)
        self._drivers: list[Any] = []
        self._extra_done_checks: list[Callable[[], bool]] = []

    def _track(self, driver: Any) -> Any:
        """Register a script driver whose ``done`` gates :meth:`run`."""
        self._drivers.append(driver)
        return driver

    def add_done_check(self, check: Callable[[], bool]) -> None:
        """Register an extra completion condition."""
        self._extra_done_checks.append(check)

    def _all_done(self) -> bool:
        if not all(driver.done for driver in self._drivers):
            return False
        return all(check() for check in self._extra_done_checks)

    def run(self, *, max_time: float = 300.0, max_events: int = 5_000_000) -> None:
        """Run until every driver (and extra check) reports done.

        Raises:
            OperationFailedError: if the virtual-time or event budget is
                exhausted first — i.e. liveness failed under this schedule.
        """
        self.scheduler.run(
            until=self.scheduler.now + max_time,
            max_events=max_events,
            stop_when=self._all_done,
        )
        if not self._all_done():
            busy = [d.node_id for d in self._drivers if not d.done]
            raise OperationFailedError(
                f"workload incomplete after {max_time}s virtual time; "
                f"busy: {busy}"
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


@dataclass
class ClusterOptions:
    """Knobs for one simulated deployment."""

    f: int = 1
    variant: Variant = Variant.BASE
    scheme: str = "hmac"
    seed: int = 0
    profile: LinkProfile = field(default_factory=LinkProfile.reliable)
    background_signing: bool = False
    gc_plist: bool = True
    strict_stop: bool = False
    piggyback_write_certs: bool = False
    prefer_quorum: bool = False
    #: Enable the memoizing verification pipeline (set False for the
    #: uncached ablation arm of experiment E4d).
    verification_cache: bool = True
    #: Optional per-replica cap on resident per-client protocol state
    #: (plist/optlist/fastc); entries beyond it spill to the WAL-backed
    #: store and rehydrate on demand.  ``None`` keeps the classic
    #: all-resident behaviour.
    client_state_budget: Optional[ClientStateBudget] = None
    #: Virtual-time cost of one foreground public-key signature at a
    #: replica (models §3.3.2's signing cost; 0 = free).
    sign_delay: float = 0.0
    retransmit_interval: float = 0.05
    #: Called with each replica's node_id to build its backing store.  When
    #: set, that replica's Figure-2 state is mediated by the produced store
    #: (e.g. a FileLogStore for durable deployments); None keeps the
    #: volatile in-memory default.
    store_factory: Optional[Callable[[str], ReplicaStore]] = None
    #: Replica index -> factory producing a (possibly Byzantine) replica.
    replica_overrides: dict[int, ReplicaFactory] = field(default_factory=dict)
    #: Observability handle threaded through every client and replica of
    #: the cluster.  ``None`` builds a disabled handle: spans are no-ops,
    #: but the stats sources still register so metrics accessors work.
    instrumentation: Optional[Instrumentation] = None

    def __post_init__(self) -> None:
        try:
            self.variant = Variant.coerce(self.variant)
        except Exception:
            raise SimulationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            ) from None


class Cluster(SimHarness):
    """A fully wired simulated deployment.

    By default the options' variant decides everything.  A caller hosting
    another protocol's state machines on the same harness (the BQS and
    Phalanx baselines) hands in an explicit ``config`` plus
    ``replica_factory(node_id, config)`` and ``client_factory(node_id,
    config, instrumentation=...)``; such replicas are plain reactive state
    machines, hosted without the BFT-BC store and signing extras.
    """

    def __init__(
        self,
        options: ClusterOptions,
        *,
        config: Optional[SystemConfig] = None,
        replica_factory: Optional[ReplicaFactory] = None,
        client_factory: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.options = options
        self.config = config or make_system(
            options.f,
            scheme=options.scheme,
            seed=b"cluster-seed-%d" % options.seed,
            strong=options.variant.strong,
            background_signing=options.background_signing,
            gc_plist=options.gc_plist,
            strict_stop=options.strict_stop,
            piggyback_write_certs=options.piggyback_write_certs,
            prefer_quorum=options.prefer_quorum,
            verification_cache=options.verification_cache,
            client_state_budget=options.client_state_budget,
        )
        super().__init__(
            profile=options.profile,
            seed=options.seed,
            instrumentation=options.instrumentation,
        )
        self.recorder = HistoryRecorder(lambda: self.scheduler.now)
        self.metrics = MetricsCollector(instrumentation=self.instrumentation)
        assert self.config.verifier is not None
        self.instrumentation.attach_verification(self.config.verifier.stats)
        self.instrumentation.attach_wire_cache(wire_cache_stats())
        self.instrumentation.attach_keys(self.config.registry.stats)
        if self.config.authenticator is not None:
            self.instrumentation.attach_sessions(self.config.authenticator.stats)
        self._client_factory = client_factory or options.variant.client_cls
        self.replica_nodes: dict[str, ReplicaHost] = {}
        self.clients: dict[str, ClientNode] = {}
        if replica_factory is None:
            self._build_replicas()
        else:
            for index, node_id in enumerate(self.config.quorums.replica_ids):
                factory = options.replica_overrides.get(index, replica_factory)
                self.replica_nodes[node_id] = ReplicaHost(
                    factory(node_id, self.config), self.network
                )

    @property
    def replicas(self) -> dict[str, Any]:
        """Live replica state machines, by node id.

        A property over the nodes because a crash/restart fault swaps the
        node's replica object for a freshly recovered one.
        """
        return {nid: node.replica for nid, node in self.replica_nodes.items()}

    # -- construction ------------------------------------------------------------

    def _build_replicas(self) -> None:
        replica_cls = self.options.variant.replica_cls
        storage_stats = {}
        client_state_stats = {}
        stabilization_stats = {}
        for index, node_id in enumerate(self.config.quorums.replica_ids):
            factory = self.options.replica_overrides.get(index)
            if factory is not None:
                # Byzantine overrides keep their own (volatile) state.
                replica = factory(node_id, self.config)
            elif self.options.store_factory is not None:
                replica = replica_cls(
                    node_id,
                    self.config,
                    store=self.options.store_factory(node_id),
                    instrumentation=self.instrumentation,
                )
            else:
                replica = replica_cls(
                    node_id, self.config, instrumentation=self.instrumentation
                )
            storage_stats[node_id] = replica.store.stats
            stabilization_stats[node_id] = replica.stats
            client_state = getattr(replica, "client_state", None)
            if client_state is not None:
                client_state_stats[node_id] = client_state.stats
            self.replica_nodes[node_id] = ReplicaNode(
                replica,
                self.network,
                self.scheduler,
                sign_delay=self.options.sign_delay,
            )
        self.instrumentation.attach_storage(storage_stats)
        self.instrumentation.attach_stabilization(stabilization_stats)
        if client_state_stats:
            self.instrumentation.attach_client_state(client_state_stats)

    def add_client(self, name: str) -> ClientNode:
        """Create a correct client of the cluster's variant."""
        client = self._client_factory(
            f"client:{name}", self.config, instrumentation=self.instrumentation
        )
        node = ClientNode(
            client,
            self.network,
            self.scheduler,
            recorder=self.recorder,
            metrics=self.metrics,
            retransmit_interval=self.options.retransmit_interval,
        )
        self.clients[client.node_id] = self._track(node)
        return node

    def add_adversary(self, machine: Any) -> Any:
        """Host a Byzantine client and start it; returns ``machine``.

        ``machine`` is any sans-I/O ``start / deliver / retransmit ->
        [Send]`` state machine with ``node_id`` and ``done`` (see
        :mod:`repro.byzantine`); :meth:`run` waits for it like for any
        client.  Remove it with :meth:`stop_client`.
        """
        host = MachineHost(
            machine,
            self.network,
            self.scheduler,
            retransmit_interval=self.options.retransmit_interval,
        )
        host.begin(machine.start())
        return self._track(machine)

    # -- execution ------------------------------------------------------------------

    def install_faults(self, schedule: FaultSchedule) -> None:
        schedule.install(self.scheduler, self.network, nodes=self.replica_nodes)

    def run_scripts(
        self,
        scripts: dict[str, Sequence[ScriptStep]],
        *,
        think_time: float = 0.0,
        stagger: float = 0.0,
        max_time: float = 300.0,
    ) -> None:
        """Install one script per client (by short name) and run to completion.

        Clients are created on demand.  ``stagger`` spaces the clients'
        start times to control contention.
        """
        for index, (name, script) in enumerate(scripts.items()):
            node = self.clients.get(f"client:{name}") or self.add_client(name)
            node.run_script(
                script, think_time=think_time, start_delay=index * stagger
            )
        self.run(max_time=max_time)

    # -- administrative actions -------------------------------------------------

    def stop_client(self, node_id: str) -> None:
        """The §4.1.1 stop event: revoke the key and record ``<c : stop>``."""
        self.config.revoke_writer(node_id)
        self.recorder.record_stop(node_id)

    # -- results ------------------------------------------------------------------

    @property
    def history(self) -> History:
        return self.recorder.history

    def client(self, name: str) -> ClientNode:
        return self.clients[f"client:{name}"]


def build_cluster(options: Optional[ClusterOptions] = None, **kwargs) -> Cluster:
    """Build a cluster from options or keyword overrides."""
    if options is None:
        options = ClusterOptions(**kwargs)
    elif kwargs:
        raise SimulationError("pass either options or keyword overrides, not both")
    return Cluster(options)
