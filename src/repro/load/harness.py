"""Open-loop load harness on the deterministic simulator (E21).

Drives a :class:`~repro.load.profile.LoadProfile` against a single 3f+1
replica group in virtual time.  Three properties matter here and shape the
design:

* **Open loop** — arrivals fire on the Poisson schedule whether or not
  earlier operations finished.  Latency is measured from the *scheduled
  arrival time*, so client-side queueing during overload shows up in the
  histograms exactly as it would in production.
* **Huge cold identity universe** — a run touches 10⁵–10⁶ distinct client
  identities, which is precisely what the lazy
  :class:`~repro.crypto.keys.KeyRegistry`, the budgeted verifier/session
  caches, and the spill-capable
  :class:`~repro.core.persistence.ClientStateTable` exist for.  Client
  endpoints are *transient*: a driver is hosted on the network when its
  identity has work and closed when it drains, so neither the handler
  table nor the driver map grows with every identity ever seen.  Distinct
  identities are counted exactly in a bitmap (one bit per universe slot).
* **Bounded event backlog** — arrivals are scheduled *chained* (each
  injection schedules only the next one), so the scheduler holds O(active
  operations) timers, not O(total arrivals).

Replicas sit on the shared :class:`~repro.sim.nodes.ReplicaHost`: with
``service_delay > 0`` each inbound frame occupies the replica for that much
virtual time (a single-server queue), so measured capacity can be
cross-checked against
:meth:`~repro.analysis.costs.CostModel.open_loop_capacity`.

The report's ``ops_digest`` hashes (index, client, object, kind, result) in
completion order.  Virtual time makes completion order a pure function of
the profile and seeds, so a budgeted and an unbounded run of the same
profile must produce *equal* digests and equal replica fingerprints — the
differential acceptance check for the identity-layer budgets.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.costs import CostModel
from repro.core.config import NamespaceWriters, SystemConfig, Variant, make_system
from repro.core.multiobject import MultiObjectClient, MultiObjectReplica
from repro.core.persistence import ClientStateBudget
from repro.errors import OperationFailedError, SimulationError
from repro.load.generator import Arrival, OpenLoopGenerator
from repro.load.profile import (
    DEFAULT_SLOS,
    LoadProfile,
    LoadReport,
    SloTarget,
    SloVerdict,
)
from repro.net.simnet import LinkProfile
from repro.obs.histograms import LatencyHistogram
from repro.sim.nodes import MachineHost, ReplicaHost
from repro.sim.runner import SimHarness

__all__ = [
    "SimLoadOptions",
    "SimLoadHarness",
    "LoadTally",
    "run_open_loop",
    "judge_slos",
]


def judge_slos(
    targets: tuple[SloTarget, ...],
    *,
    write_hist: LatencyHistogram,
    read_hist: LatencyHistogram,
    completion_fraction: float,
) -> tuple[SloVerdict, ...]:
    """Judge each target against the run's observations.

    Latency metrics (``write.p95`` …) are ceilings; ``completion`` is a
    floor.  A latency target over an *empty* histogram passes trivially
    (a read-only profile has nothing to hold against a write SLO).
    """
    verdicts = []
    for target in targets:
        if target.metric == "completion":
            observed = completion_fraction
            ok = observed >= target.limit
        else:
            series, _, point = target.metric.partition(".")
            hist = {"write": write_hist, "read": read_hist}.get(series)
            if hist is None or point not in ("p50", "p95", "p99", "mean"):
                raise SimulationError(f"unknown SLO metric {target.metric!r}")
            if hist.count == 0:
                observed, ok = 0.0, True
            else:
                observed = (
                    hist.mean()
                    if point == "mean"
                    else hist.quantile(int(point[1:]) / 100.0)
                )
                ok = observed <= target.limit
        verdicts.append(
            SloVerdict(
                metric=target.metric,
                limit=target.limit,
                observed=observed,
                ok=ok,
            )
        )
    return tuple(verdicts)


class LoadTally:
    """What a load run counts, and the :class:`LoadReport` built from it.

    Shared by the simulator harness and the TCP runner: distinct
    identities are counted exactly in a bitmap (one bit per universe
    slot), completions feed the per-kind latency histograms and a
    completion-order digest, and :meth:`report` judges the SLOs.
    """

    def __init__(self, profile: LoadProfile) -> None:
        self.profile = profile
        self.arrivals = 0
        self.completed = 0
        self.write_hist = LatencyHistogram()
        self.read_hist = LatencyHistogram()
        self._seen = bytearray((profile.identities + 7) // 8)
        self._digest = hashlib.sha256()

    def arrive(self, arrival: Arrival) -> None:
        self.arrivals += 1
        slot = int(arrival.client[len(self.profile.namespace):])
        self._seen[slot >> 3] |= 1 << (slot & 7)

    def complete(self, arrival: Arrival, latency: float, line: str) -> None:
        """Count one finished operation; ``line`` is its digest record."""
        self.completed += 1
        hist = self.write_hist if arrival.kind == "write" else self.read_hist
        hist.record(latency)
        self._digest.update(line.encode())

    def report(
        self,
        *,
        slos: tuple[SloTarget, ...],
        elapsed: float,
        identity: dict[str, int],
        predicted_capacity: float = float("inf"),
    ) -> LoadReport:
        duration = self.profile.duration
        offered = self.arrivals / duration if duration else 0.0
        completion = self.completed / self.arrivals if self.arrivals else 1.0

        def q(hist: LatencyHistogram, quantile: float) -> float:
            return hist.quantile(quantile) if hist.count else 0.0

        return LoadReport(
            offered_rate=offered,
            duration=duration,
            arrivals=self.arrivals,
            completed=self.completed,
            failed=self.arrivals - self.completed,
            distinct_identities=bin(
                int.from_bytes(bytes(self._seen), "big")
            ).count("1"),
            elapsed=elapsed,
            achieved_throughput=self.completed / elapsed if elapsed > 0 else 0.0,
            write_p50=q(self.write_hist, 0.50),
            write_p95=q(self.write_hist, 0.95),
            write_p99=q(self.write_hist, 0.99),
            read_p50=q(self.read_hist, 0.50),
            read_p95=q(self.read_hist, 0.95),
            read_p99=q(self.read_hist, 0.99),
            ops_digest=self._digest.hexdigest(),
            predicted_capacity=predicted_capacity,
            utilization=(
                offered / predicted_capacity
                if predicted_capacity != float("inf")
                else 0.0
            ),
            identity=identity,
            slos=judge_slos(
                slos,
                write_hist=self.write_hist,
                read_hist=self.read_hist,
                completion_fraction=completion,
            ),
        )


@dataclass
class SimLoadOptions:
    """Deployment knobs for one simulated load run."""

    f: int = 1
    variant: Variant = Variant.BASE
    scheme: str = "hmac"
    #: Virtual-time cost of serving one inbound frame at a replica
    #: (single-server queue); 0 = infinitely fast replicas.
    service_delay: float = 0.0
    link: LinkProfile = field(default_factory=LinkProfile.reliable)
    #: Per-replica cap on resident per-client protocol state; ``None``
    #: keeps the classic all-resident behaviour.
    budget: Optional[ClientStateBudget] = None
    #: Registry derived-secret LRU capacity; ``None`` = registry default.
    secret_cache: Optional[int] = None
    slos: tuple[SloTarget, ...] = DEFAULT_SLOS
    retransmit_interval: float = 0.25
    #: Virtual time allowed after the arrival window for in-flight
    #: operations to drain before they count as failed.
    drain: float = 30.0

    def __post_init__(self) -> None:
        self.variant = Variant.coerce(self.variant)


class _ClientDriver(MachineHost):
    """A transient endpoint for one identity while it has work.

    Created on an identity's first pending arrival, registered with the
    network for exactly that long, and parked (closed, dropped from the
    active map) once its queue drains.  Operations run sequentially per
    identity; queueing delay counts toward the measured latency.
    """

    machine: MultiObjectClient

    def __init__(self, harness: "SimLoadHarness", identity: str) -> None:
        client = MultiObjectClient(identity, harness.config, harness.client_cls)
        # Restore the identity's write certificates from its last
        # incarnation.  A real client retains its certs across idle
        # periods; without them nothing ever piggybacks a write cert back
        # to the replicas, write_ts never advances, prepare lists are
        # never pruned, and a returning writer wedges on plist-conflict.
        for obj, cert in harness._cert_wallet.get(identity, {}).items():
            client.object_client(obj).write_cert = cert
        super().__init__(
            client,
            harness.network,
            harness.scheduler,
            retransmit_interval=harness.options.retransmit_interval,
        )
        self.harness = harness
        self.pending: deque[Arrival] = deque()
        self.current: Optional[Arrival] = None

    def submit(self, arrival: Arrival) -> None:
        self.pending.append(arrival)
        if self.current is None:
            self._next()

    def _next(self) -> None:
        arrival = self.pending.popleft()
        self.current = arrival
        if arrival.kind == "write":
            self.begin(
                self.machine.begin_write(arrival.obj, f"v{arrival.index}")
            )
        else:
            self.begin(self.machine.begin_read(arrival.obj))

    def _finished(self) -> bool:
        assert self.current is not None
        return not self.machine.busy(self.current.obj)

    def _on_done(self) -> None:
        arrival = self.current
        assert arrival is not None
        self.current = None
        self.harness._complete(arrival, self.machine.result(arrival.obj))
        if self.pending:
            self._next()
        else:
            self.harness._park(self)


class SimLoadHarness(SimHarness):
    """One open-loop run: profile in, :class:`LoadReport` out."""

    def __init__(
        self, profile: LoadProfile, options: Optional[SimLoadOptions] = None
    ) -> None:
        self.profile = profile
        self.options = options or SimLoadOptions()
        self.config: SystemConfig = make_system(
            self.options.f,
            scheme=self.options.scheme,
            seed=b"load-seed-%d" % profile.seed,
            strong=self.options.variant.strong,
            client_state_budget=self.options.budget,
            secret_cache=self.options.secret_cache,
            authorized_writers=NamespaceWriters(profile.namespace),
        )
        # One wholesale grant instead of 10^6 registrations: every identity
        # under the namespace is known to the registry, secrets derive
        # lazily into the bounded cache on first use.
        self.config.registry.open_namespace(profile.namespace)
        super().__init__(profile=self.options.link, seed=profile.seed)
        self.replicas = [
            ReplicaHost(
                MultiObjectReplica(
                    node_id, self.config, self.options.variant.replica_cls
                ),
                self.network,
                self.scheduler,
                service_delay=self.options.service_delay,
            )
            for node_id in self.config.quorums.replica_ids
        ]
        #: Identities with work right now (transient, see the module
        #: docstring) — not the base's long-lived script drivers.
        self._active: dict[str, _ClientDriver] = {}
        self.add_done_check(lambda: self._exhausted and not self._active)
        # Client-side keepsakes: each identity's latest write certificate
        # per object, carried across driver incarnations (see
        # :class:`_ClientDriver`).  A few frozen signatures per writing
        # identity — not replica state, so not part of ``tracked_entries``.
        self._cert_wallet: dict[str, dict[str, object]] = {}
        self._arrivals_iter: Iterator[Arrival] = OpenLoopGenerator(
            profile
        ).arrivals()
        self._exhausted = False
        #: Looked up once: a driver is built per identity activation.
        self.client_cls = self.options.variant.client_cls
        self.tally = LoadTally(profile)
        self.driver_activations = 0

    # -- arrival injection -------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        arrival = next(self._arrivals_iter, None)
        if arrival is None:
            self._exhausted = True
            return
        self.scheduler.call_at(arrival.at, lambda: self._inject(arrival))

    def _inject(self, arrival: Arrival) -> None:
        self.tally.arrive(arrival)
        driver = self._active.get(arrival.client)
        if driver is None:
            driver = _ClientDriver(self, arrival.client)
            self._active[arrival.client] = driver
            self.driver_activations += 1
        driver.submit(arrival)
        self._schedule_next_arrival()

    # -- completion / parking ----------------------------------------------

    def _complete(self, arrival: Arrival, result: object) -> None:
        self.tally.complete(
            arrival,
            self.scheduler.now - arrival.at,
            f"{arrival.index}|{arrival.client}|{arrival.obj}|"
            f"{arrival.kind}|{result!r}\n",
        )

    def _park(self, driver: _ClientDriver) -> None:
        client = driver.machine
        certs = {
            obj: client.object_client(obj).write_cert
            for obj in client.objects
            if client.object_client(obj).write_cert is not None
        }
        if certs:
            self._cert_wallet[driver.node_id] = certs
        driver.close()
        del self._active[driver.node_id]

    # -- accounting --------------------------------------------------------

    @property
    def active_drivers(self) -> int:
        return len(self._active)

    def client_state_totals(self) -> dict[str, int]:
        """Resident/spilled counts and spill/rehydrate totals, all replicas."""
        resident = spilled = spills = rehydrations = 0
        for node in self.replicas:
            host = node.replica
            for obj in host.objects:
                table = host.object_state(obj).client_state
                resident += table.resident_entries
                spilled += table.spilled_entries
                spills += table.stats.spills
                rehydrations += table.stats.rehydrations
        return {
            "resident": resident,
            "spilled": spilled,
            "spills": spills,
            "rehydrations": rehydrations,
        }

    def tracked_entries(self) -> int:
        """Total *resident* identity-layer entries, all caches, right now.

        The quantity the budgeted-vs-unbounded differential compares:
        registry secrets + MAC session keys + per-client protocol state
        held hot at replicas.
        """
        total = self.config.registry.resident_secrets
        if self.config.authenticator is not None:
            total += self.config.authenticator.resident_sessions
        total += self.client_state_totals()["resident"]
        return total

    def identity_accounting(self) -> dict[str, int]:
        registry = self.config.registry
        state = self.client_state_totals()
        out = {
            "registry_resident": registry.resident_secrets,
            "registry_derivations": registry.stats.derivations,
            "registry_evictions": registry.stats.evictions,
            "client_state_resident": state["resident"],
            "client_state_spilled": state["spilled"],
            "client_state_spills": state["spills"],
            "client_state_rehydrations": state["rehydrations"],
            "driver_activations": self.driver_activations,
            "tracked_entries": self.tracked_entries(),
        }
        if self.config.authenticator is not None:
            out["session_resident"] = self.config.authenticator.resident_sessions
            out["session_evictions"] = (
                self.config.authenticator.stats.session_key_evictions
            )
        return out

    def object_fingerprints(self) -> dict[str, dict[str, str]]:
        """Per-replica, per-object state fingerprints (differential check)."""
        out: dict[str, dict[str, str]] = {}
        for node in self.replicas:
            host = node.replica
            out[node.node_id] = {
                obj: host.object_state(obj).state_fingerprint().hex()
                for obj in sorted(host.objects)
            }
        return out

    # -- execution ---------------------------------------------------------

    def run(self, *, max_events: int = 50_000_000) -> LoadReport:  # type: ignore[override]
        started = self.scheduler.now
        self._schedule_next_arrival()
        try:
            super().run(
                max_time=self.profile.duration + self.options.drain,
                max_events=max_events,
            )
        except OperationFailedError:
            pass  # an undrained backlog is data: the report counts it failed
        predicted = (
            CostModel(self.config.quorums).open_loop_capacity(
                self.options.service_delay,
                self.options.variant.value,
                write_fraction=self.profile.write_fraction,
            )
            if self.options.service_delay > 0
            else float("inf")
        )
        return self.tally.report(
            slos=self.options.slos,
            elapsed=self.scheduler.now - started,
            identity=self.identity_accounting(),
            predicted_capacity=predicted,
        )


def run_open_loop(
    profile: LoadProfile, options: Optional[SimLoadOptions] = None, **kwargs
) -> LoadReport:
    """Run one open-loop profile on the simulator and return the report.

    Keyword overrides build a :class:`SimLoadOptions` when none is given.
    """
    if options is None:
        options = SimLoadOptions(**kwargs)
    elif kwargs:
        raise SimulationError("pass either options or keyword overrides, not both")
    return SimLoadHarness(profile, options).run()
