"""The six pinned workloads.

Each repetition stands up a fresh deployment, commits a warm-up, runs a
*fixed* number of operations generated from the seed, checks what came
back, and tears down.  Fixed work, not fixed time: throughput decays inside
a run (the WAL and the prepare lists grow), so two sides of a comparison
must do the same operations to be comparable.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import resource
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from perfbench import api
from perfbench.metrics import RATES, SCALE, SLO_MS
from perfbench.openloop import StepResult, run_step

#: 2f+1 of the 3f+1 = 4 replicas every workload runs (f = 1).
QUORUM = 3
#: Open-loop in-flight cap; a wait for a slot counts in the latency.
IN_FLIGHT_CAP = 4
OPEN_LOOP_TIMEOUT_S = 2.0
WRITE_FRACTION = 0.5
#: Seconds at each of ``RATES`` before scaling.
STEP_SECONDS = (5.0, 5.0, 4.0)


def value_for(seed: int, index: int, size: int = 64) -> bytes:
    """The write payload for operation ``index`` of a run seeded ``seed``."""
    block = hashlib.sha256(b"perfbench:%d:%d" % (seed, index)).digest()
    return (block * (size // len(block) + 1))[:size]


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    #: Latency samples in ms, by series: ``op`` always; ``read``/``write``
    #: and ``at_<rate>`` where the workload has them.
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: Deltas of the program's own counters over the timed section.
    counts: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _dir_bytes(path: "str | Path") -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def _agreeing(fingerprints: dict[str, Any]) -> int:
    return max(Counter(fingerprints.values()).values()) if fingerprints else 0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _pid_cpu_seconds(pid: Optional[int]) -> float:
    """utime + stime of another live process (Linux ``/proc``); 0 elsewhere."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def _check_recovered(rep: Rep, variant: str, seed: int, data_dir: Any, value: bytes) -> None:
    """Reopen the four journals with nothing running: the last acknowledged
    write must be what 2f+1 of them recover."""
    found = 0
    for i in range(QUORUM + 1):
        node_id = f"replica:{i}"
        replica = api.recover_offline(
            variant, seed, api.replica_dir(data_dir, node_id), node_id
        )
        found += replica.data == value and not replica.quarantined
    if found < QUORUM:
        rep.errors.append(
            f"last acknowledged write recovered on {found} replicas, need {QUORUM}"
        )


class Workload:
    """Template of one repetition; subclasses fill in the steps."""

    name = ""
    why = ""
    #: Operations in the timed section at scale 1 (the issue's sizing).
    full_ops = 0
    variant = "base"

    def __init__(self, scale: float = SCALE) -> None:
        self.scale = scale
        self.ops = max(8, int(self.full_ops * scale))
        self.seed = 0
        self.workdir = Path()

    # -- the steps ----------------------------------------------------------

    def open(self) -> None:
        raise NotImplementedError

    def first_op(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Further warm-up operations, after set-up time has stopped."""

    def counters(self) -> dict[str, float]:
        return {}

    def load(self, rep: Rep) -> None:
        raise NotImplementedError

    def check(self, rep: Rep) -> None:
        """Checks against the live deployment."""

    def close(self) -> None:
        raise NotImplementedError

    def check_offline(self, rep: Rep) -> None:
        """Checks once nothing is running."""

    # -- the template -------------------------------------------------------

    def run_rep(self, seed: int, workdir: Path, tracer: Any = None, load: bool = True) -> Rep:
        """One repetition; ``load=False`` stops after the first operation
        (a set-up-only cycle, for the set-up median)."""
        self.seed, self.workdir = seed, workdir
        rep = Rep()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        started = time.perf_counter()
        try:
            self.open()
            try:
                self.first_op()
                rep.setup_s = time.perf_counter() - started
                if load:
                    self.warm_up()
                    before = self.counters()
                    if tracer is not None:
                        tracer.install()
                    try:
                        self.load(rep)
                    finally:
                        if tracer is not None:
                            tracer.uninstall()
                    after = self.counters()
                    rep.counts = {key: after[key] - before[key] for key in after}
                    self.check(rep)
            finally:
                self.close()
            if load:
                self.check_offline(rep)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return rep

    # -- shared checks ------------------------------------------------------

    def _check_increasing(self, rep: Rep, client: str, stamps: list[Any]) -> None:
        if any(stamp is None for stamp in stamps):
            rep.errors.append(f"{client}: a write returned no timestamp")
        elif any(a >= b for a, b in zip(stamps, stamps[1:])):
            rep.errors.append(f"{client}: write timestamps not strictly increasing")

    def _check_flush(self, rep: Rep, dep: Any, expect_read: Optional[bytes]) -> bytes:
        """A final read returns the last acknowledged value; then one more
        write, after which the callers compare fingerprints."""
        if dep.read() != expect_read:
            rep.errors.append("final read did not return the last acknowledged value")
        flush = value_for(self.seed, -1000)
        if dep.write(flush) is None:
            rep.errors.append("flush write returned no timestamp")
        return flush


class ScriptWorkload(Workload):
    """Writes submitted as ``run_script`` calls of ``chunk`` operations: the
    deployment deals them to its logical clients and returns when all are
    done, so a call, not an operation, is what can be timed."""

    chunk = 50

    def load(self, rep: Rep) -> None:
        script = [("write", value_for(self.seed, i)) for i in range(self.ops)]
        stamps: dict[str, list[Any]] = defaultdict(list)
        newest: Optional[tuple[Any, bytes]] = None
        started = time.perf_counter()
        for offset in range(0, self.ops, self.chunk):
            part = script[offset:offset + self.chunk]
            t0 = time.perf_counter()
            try:
                records = self.dep.run_script(part)
            except Exception as exc:  # an incomplete script fails its operations
                rep.failed += len(part)
                rep.errors.append(f"run_script failed: {exc!r}")
                continue
            rep.samples["op"].append((time.perf_counter() - t0) * 1e3 / len(part))
            for record in sorted(records, key=lambda r: r.index):
                stamps[record.client].append(record.result)
                if record.result is not None and (newest is None or record.result > newest[0]):
                    newest = (record.result, record.value)
        rep.wall_s = time.perf_counter() - started
        rep.ops = self.ops
        rep.extra["writes"] = self.ops
        for client, series in stamps.items():
            self._check_increasing(rep, client, series)
        self.last_value = newest[1] if newest else None


def _server_counters(config: Any, replicas: list[Any]) -> dict[str, float]:
    """The program's public counters, flattened."""
    enc, intern, wire = api.encode_stats(), api.intern_stats(), api.wire_cache_stats()
    verify = config.verifier.stats
    out: dict[str, float] = {
        "encoding.calls": enc.calls,
        "encoding.bytes": enc.bytes_out,
        "intern.hits": intern.hits,
        "intern.misses": intern.misses,
        "wire.hits": wire.hits,
        "wire.misses": wire.misses,
        "crypto.signs": config.scheme.stats.signs,
        "crypto.verifies": config.scheme.stats.verifies,
        "crypto.macs_computed": config.authenticator.macs_computed,
        "crypto.macs_checked": config.authenticator.macs_checked,
        "crypto.key_derivations": config.registry.stats.derivations,
        "verify.passes": verify.verify_calls,
        "verify.checks": verify.signature_checks,
        "verify.hits": verify.signature_hits,
        "verify.batch_calls": verify.batch_calls,
        "verify.batched": verify.batched_signatures,
    }
    stores = [replica.store.stats for replica in replicas]
    out.update({
        "replica.handled": sum(sum(r.stats.handled.values()) for r in replicas),
        "replica.discards": sum(r.stats.total_discards for r in replicas),
        "replica.foreground_signs": sum(r.stats.foreground_signs for r in replicas),
        "storage.appends": sum(store.appends for store in stores),
        "storage.fsyncs": sum(store.fsyncs for store in stores),
        "storage.appended_bytes": sum(store.appended_bytes for store in stores),
        "storage.snapshots": sum(store.snapshots for store in stores),
    })
    return out


# -- sim ---------------------------------------------------------------------


class SimWrite(ScriptWorkload):
    """Eight logical clients writing through the virtual-time simulator."""

    clients = 8

    def open(self) -> None:
        self.dep = api.deploy(api.DeploymentSpec(
            transport="sim", variant=self.variant, scheme="hmac", store="memory",
            pipeline=self.clients, seed=self.seed,
            sim_options={"profile": api.LinkProfile(min_delay=0.005, max_delay=0.005)},
        ))

    def first_op(self) -> None:
        self.dep.write(value_for(self.seed, -1))

    def warm_up(self) -> None:
        # Two writes per logical client: registers all eight identities and
        # leaves each holding a write certificate, the steady state.
        self.dep.run_script([
            ("write", value_for(self.seed, -2 - i)) for i in range(2 * self.clients)
        ])

    def counters(self) -> dict[str, float]:
        cluster = self.dep.cluster
        out = _server_counters(cluster.config, list(cluster.replicas.values()))
        out["sim.messages"] = cluster.network.stats.messages_sent
        out["sim.bytes"] = cluster.network.stats.bytes_sent
        out["sim.events"] = cluster.scheduler.events_processed
        return out

    def check(self, rep: Rep) -> None:
        writes = self.ops - rep.failed
        model = api.CostModel(self.dep.cluster.config.quorums)
        expected = {
            "crypto.signs": model.write_signature_ops(self.variant) * writes,
            "crypto.macs_computed": (
                model.fast_write_macs_computed() * writes if self.variant == "fastpath" else 0
            ),
        }
        for key, want in expected.items():
            if rep.counts[key] != want:
                rep.errors.append(
                    f"{key}: {rep.counts[key]} over {writes} writes, closed form says {want}"
                )
        self._check_flush(rep, self.dep, self.last_value)
        self.dep.cluster.settle(0.1)
        if _agreeing(self.dep.fingerprints()) < QUORUM:
            rep.errors.append("fewer than 2f+1 replica fingerprints agree")

    def close(self) -> None:
        self.dep.close()


class SimBaseWrite(SimWrite):
    name = "sim-base-write"
    why = ("closed loop, 8 logical clients, 800 base writes/rep (issue sizing "
           "x0.5), 5 ms links: the E13b canon, CPU only (encoding, crypto, core, "
           "sim); bypasses fsync, MAC-row and socket changes")
    full_ops = 1600
    variant = "base"


class SimFastpathWrite(SimWrite):
    name = "sim-fastpath-write"
    why = ("same, 700 fastpath writes/rep (x0.5): 48 MACs and 0 signatures per "
           "write, the only place the MAC-row cost dominates; the signed path "
           "barely runs")
    full_ops = 1400
    variant = "fastpath"


# -- tcp, closed loop ----------------------------------------------------------


class TcpClosedLoop(Workload):
    """One client, one operation at a time, each ``dep`` call timed."""

    store = "memory"
    value_size = 64

    def open(self) -> None:
        self.dep = api.deploy(api.DeploymentSpec(
            transport="tcp", variant=self.variant, scheme="hmac", store=self.store,
            fsync="always", pipeline=1, seed=self.seed,
            data_dir=str(self.workdir / "data"),
        ))

    def first_op(self) -> None:
        self.last_value = value_for(self.seed, -1, self.value_size)
        self.dep.write(self.last_value)

    def warm_up(self) -> None:
        for i in range(3):
            self.last_value = value_for(self.seed, -2 - i, self.value_size)
            self.dep.write(self.last_value)
            self.dep.read()

    def counters(self) -> dict[str, float]:
        return _server_counters(self.dep.config, [s.replica for s in self.dep.servers])

    def _timed(self, rep: Rep, kind: str, value: Optional[bytes]) -> Any:
        t0 = time.perf_counter()
        try:
            result = self.dep.write(value) if kind == "write" else self.dep.read()
        except Exception as exc:
            rep.failed += 1
            rep.errors.append(f"{kind} failed: {exc!r}")
            return None
        ms = (time.perf_counter() - t0) * 1e3
        rep.samples["op"].append(ms)
        rep.samples[kind].append(ms)
        return result

    def check(self, rep: Rep) -> None:
        self.flush_value = self._check_flush(rep, self.dep, self.last_value)
        time.sleep(0.05)  # let the fourth replica finish the flush write
        if _agreeing(self.dep.fingerprints()) < QUORUM:
            rep.errors.append("fewer than 2f+1 replica fingerprints agree")
        rep.extra["disk_bytes"] = (
            _dir_bytes(self.workdir / "data") if self.store == "file" else 0
        )

    def close(self) -> None:
        self.dep.close()


class TcpDurableWrite(TcpClosedLoop):
    name = "tcp-durable-write"
    why = ("closed loop, 1 client, 250 1-KiB base writes/rep (issue sizing x0.5), "
           "WAL fsynced per append: storage and net carry the latency; shows "
           "group commit; bypassed by sim-* and tcp-read-mostly")
    full_ops = 500
    variant = "base"
    store = "file"
    value_size = 1024

    def load(self, rep: Rep) -> None:
        stamps = []
        started = time.perf_counter()
        for i in range(self.ops):
            value = value_for(self.seed, i, self.value_size)
            stamp = self._timed(rep, "write", value)
            if stamp is not None:
                stamps.append(stamp)
                self.last_value = value
        rep.wall_s = time.perf_counter() - started
        rep.ops = self.ops
        rep.extra["writes"] = self.ops
        self._check_increasing(rep, "client", stamps)

    def check_offline(self, rep: Rep) -> None:
        _check_recovered(rep, self.variant, self.seed, self.workdir / "data", self.flush_value)


class TcpReadMostly(TcpClosedLoop):
    name = "tcp-read-mostly"
    why = ("closed loop, 1 client, 2000 ops/rep (x0.5), seeded 90% 1-phase reads "
           "and 10% optimized writes, no WAL: verification, encoding and loop "
           "overhead dominate; a write-side gain paid for by reads shows here")
    full_ops = 4000
    variant = "optimized"

    def load(self, rep: Rep) -> None:
        writes = self.ops // 10
        kinds = ["write"] * writes + ["read"] * (self.ops - writes)
        random.Random(f"perfbench-mix-{self.seed}").shuffle(kinds)
        stamps, stale = [], 0
        started = time.perf_counter()
        for i, kind in enumerate(kinds):
            if kind == "write":
                value = value_for(self.seed, i)
                stamp = self._timed(rep, "write", value)
                if stamp is not None:
                    stamps.append(stamp)
                    self.last_value = value
            elif self._timed(rep, "read", None) != self.last_value:
                stale += 1
        rep.wall_s = time.perf_counter() - started
        rep.ops = self.ops
        rep.extra["writes"] = writes
        self._check_increasing(rep, "client", stamps)
        if stale:
            rep.errors.append(f"{stale} reads did not return the last acknowledged write")


# -- tcp, open loop -------------------------------------------------------------


class TcpOpenLoop(Workload):
    name = "tcp-open-loop"
    why = ("open loop, Poisson 40/80/120 per s for 2.5/2.5/2 s (x0.5), cap 4, "
           "2000 lazily keyed identities each dialling in, 4 durable replicas "
           "on one loop: queueing, connect cost, tails under a shared fsync")
    full_ops = int(sum(r * s for r, s in zip(RATES, STEP_SECONDS)))
    variant = "optimized"

    def __init__(self, scale: float = SCALE) -> None:
        super().__init__(scale)
        self.step_seconds = tuple(s * scale for s in STEP_SECONDS)
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def open(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.config = api.make_system(
            1, scheme="hmac", seed=b"cluster-seed-%d" % self.seed,
            authorized_writers=api.NamespaceWriters("load:"),
        )
        self.config.registry.open_namespace("load:")
        self.servers = [
            api.ReplicaServer.durable(
                node_id, self.config, api.replica_dir(self.workdir / "data", node_id),
                replica_cls=api.OptimizedBftBcReplica, fsync="always",
            )
            for node_id in self.config.quorums.replica_ids
        ]
        self.addrs: dict[str, tuple[str, int]] = {}
        self.written: dict[bytes, Any] = {}

        async def start() -> None:
            for server in self.servers:
                self.addrs[server.replica.node_id] = await server.start()

        self.loop.run_until_complete(start())

    async def _one(self, client_id: str, kind: str, value: Optional[bytes]) -> Any:
        """What an independent user pays: dial in, one operation, hang up."""
        endpoint = api.AsyncClient(
            api.OptimizedBftBcClient(client_id, self.config), self.addrs,
            op_timeout=OPEN_LOOP_TIMEOUT_S,
        )
        try:
            await endpoint.connect()
            if kind == "write":
                return await endpoint.write(value)
            return await endpoint.read()
        finally:
            await endpoint.close()

    def _write(self, client_id: str, value: bytes) -> Any:
        assert self.loop is not None
        stamp = self.loop.run_until_complete(self._one(client_id, "write", value))
        self.written[value] = stamp
        return stamp

    def first_op(self) -> None:
        self._write("load:warm-0", value_for(self.seed, -1))

    def warm_up(self) -> None:
        assert self.loop is not None
        for i in range(1, 4):
            self._write(f"load:warm-{i}", value_for(self.seed, -1 - i))
            self.loop.run_until_complete(self._one(f"load:warm-r{i}", "read", None))

    def counters(self) -> dict[str, float]:
        return _server_counters(self.config, [s.replica for s in self.servers])

    def schedule(self, step: int) -> list[Any]:
        """The seeded Poisson arrivals of one step, identities disjoint by step."""
        profile = api.LoadProfile(
            rate=RATES[step], duration=self.step_seconds[step], identities=2000,
            write_fraction=WRITE_FRACTION, seed=self.seed * 10 + step, identity_offset=600 * step,
        )
        return list(api.OpenLoopGenerator(profile).arrivals())

    def load(self, rep: Rep) -> None:
        assert self.loop is not None
        base = 0
        steps: list[StepResult] = []

        async def op(arrival: Any) -> Any:
            value = value_for(self.seed, base + arrival.index) if arrival.kind == "write" else None
            return await self._one(arrival.client, arrival.kind, value)

        started = time.perf_counter()
        for index, rate in enumerate(RATES):
            arrivals = self.schedule(index)
            step = self.loop.run_until_complete(run_step(
                arrivals, op, rate=rate, cap=IN_FLIGHT_CAP,
                timeout_s=OPEN_LOOP_TIMEOUT_S, slo_ms=SLO_MS,
            ))
            steps.append(step)
            self._check_step(rep, step, base)
            base += 10_000
        rep.wall_s = time.perf_counter() - started
        for step in steps:
            rep.ops += step.arrivals
            rep.failed += step.failed
            rep.samples["late"].extend(step.late_ms)
            for arrival, ms in step.timed:
                rep.samples[arrival.kind].append(ms)
                # Reads take one phase and writes two: the median of the
                # mixture flips between the two modes with the seed's exact
                # share of writes, so ``op`` and every per-rate series are
                # the writes; reads have their own series.
                if arrival.kind == "write":
                    rep.samples[f"at_{int(step.rate)}"].append(ms)
                    rep.samples["op"].append(ms)
        top = steps[-1]
        rep.extra.update({
            "writes": sum(1 for s in steps for a, _ in s.results if a.kind == "write"),
            "within_slo_at_top": top.within_slo,
            "arrivals_at_top": top.arrivals,
            "slot_waits": sum(s.slot_waits for s in steps),
            "drain_s": sum(s.drain_s for s in steps),
            "overloaded_steps": sum(s.overloaded(IN_FLIGHT_CAP) for s in steps),
            "max_rate_under_slo": max(
                [s.rate for s in steps if s.meets_slo(IN_FLIGHT_CAP)], default=0.0
            ),
        })

    def _check_step(self, rep: Rep, step: StepResult, base: int) -> None:
        for arrival, result in step.results:
            if arrival.kind == "write":
                if result is None:
                    rep.errors.append("a write returned no timestamp")
                self.written[value_for(self.seed, base + arrival.index)] = result
        stamps = list(self.written.values())
        if len(set(stamps)) != len(stamps):
            rep.errors.append("two writes were acknowledged with one timestamp")
        # A read may overtake a concurrent write, but only ever returns a
        # value some client wrote.
        unknown = sum(
            1 for arrival, result in step.results
            if arrival.kind == "read" and result not in self.written
        )
        if unknown:
            rep.errors.append(f"{unknown} reads returned a value nobody wrote")

    def check(self, rep: Rep) -> None:
        assert self.loop is not None
        last = max(self.written, key=lambda value: self.written[value])
        got = self.loop.run_until_complete(self._one("load:final-r", "read", None))
        if got != last:
            rep.errors.append("final read did not return the last acknowledged value")
        if self._write("load:final-w", value_for(self.seed, -1000)) is None:
            rep.errors.append("flush write returned no timestamp")
        self.loop.run_until_complete(asyncio.sleep(0.05))
        prints = {s.replica.node_id: s.replica.state_fingerprint() for s in self.servers}
        if _agreeing(prints) < QUORUM:
            rep.errors.append("fewer than 2f+1 replica fingerprints agree")
        rep.extra["disk_bytes"] = _dir_bytes(self.workdir / "data")

    def close(self) -> None:
        assert self.loop is not None

        async def stop() -> None:
            for server in self.servers:
                await server.stop()
            # Connection handlers end on the close; do not leave them pending.
            rest = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)

        self.loop.run_until_complete(stop())
        for server in self.servers:
            server.replica.store.close()
        self.loop.close()
        self.loop = None


# -- process fleet ---------------------------------------------------------------


class ProcessWrite(ScriptWorkload):
    name = "process-write"
    why = ("closed loop, 2 in flight, 250 writes/rep (x0.5) against one spawned "
           "`repro serve` worker hosting 4 replicas and their WALs: spawn, "
           "announce, cross-process sockets; guards the cluster package")
    full_ops = 500
    variant = "optimized"
    # Two in flight drain at the end of every call; 25 keeps that under 4%.
    chunk = 25

    def open(self) -> None:
        t0 = time.perf_counter()
        self.dep = api.deploy(api.DeploymentSpec(
            transport="process", variant=self.variant, scheme="hmac", workers=1,
            pipeline=2, fsync="always", seed=self.seed,
            data_dir=str(self.workdir / "data"),
        ))
        self.spawn_s = time.perf_counter() - t0

    def first_op(self) -> None:
        self.dep.write(value_for(self.seed, -1))

    def warm_up(self) -> None:
        self.dep.run_script([("write", value_for(self.seed, -2 - i)) for i in range(4)])

    def counters(self) -> dict[str, float]:
        # Client side only: the replicas' counters live in the worker.
        return _server_counters(self.dep.config, [])

    def load(self, rep: Rep) -> None:
        worker = self.dep.cluster.workers[0]
        cpu0, worker0 = _cpu_seconds(), _pid_cpu_seconds(worker.pid)
        super().load(rep)
        rep.extra.update({
            "spawn_s": self.spawn_s,
            "client_cpu_s": _cpu_seconds() - cpu0,
            "worker_cpu_s": _pid_cpu_seconds(worker.pid) - worker0,
        })

    def check(self, rep: Rep) -> None:
        self.flush_value = self._check_flush(rep, self.dep, self.last_value)
        self.worker_dir = self.dep.cluster.workers[0].data_dir
        # Stops the fleet, then recovers every journal offline and digests it.
        if _agreeing(self.dep.fingerprints()) < QUORUM:
            rep.errors.append("fewer than 2f+1 recovered fingerprints agree")
        rep.extra["disk_bytes"] = _dir_bytes(self.worker_dir)

    def close(self) -> None:
        self.dep.close()

    def check_offline(self, rep: Rep) -> None:
        _check_recovered(rep, self.variant, self.seed, self.worker_dir, self.flush_value)


WORKLOADS = {
    cls.name: cls
    for cls in (
        SimBaseWrite, SimFastpathWrite, TcpDurableWrite, TcpReadMostly, TcpOpenLoop, ProcessWrite,
    )
}
