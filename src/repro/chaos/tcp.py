"""The chaos campaign against the real asyncio transport.

The simulator campaign (:mod:`repro.chaos.engine`) is the volume play —
thousands of deterministic episodes.  This module is the ground-truth
play: a *smaller* campaign against one durable
:class:`~repro.cluster.deploy.ReplicaGroup` per episode (built from a
``DeploymentSpec(transport="tcp", store="file")``, keys from
``cluster-seed-<seed>``), real sockets, and a
:class:`~repro.net.chaos_proxy.ChaosProxy` per replica mangling the byte
stream (delays, dropped-and-reset chunks, mid-frame truncations, garbage
frames).  Mid-episode, one replica suffers a ``crash_restart``: the group
crashes it (listener stopped, store closed) and recovers it from the same
data directory on the same port — the moral equivalent of ``kill -9``
plus supervised restart.  Each fault fired is recorded as a catalogue spec
(:class:`~repro.sim.faults.FaultSchedule`), which the oracle battery reads
and the episode summary lists.

Each episode records a §4.1 verifiable history at the client boundary
(wall-clock timestamps) and is judged by the same oracle battery as the
simulator campaign, which reads only the history and the replicas — so
one definition of "correct" covers both worlds.  TCP scheduling is not
deterministic, which is exactly the point: the oracles must hold on
*every* schedule, and this campaign samples schedules the simulator
cannot produce.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.chaos.oracles import OracleVerdict, run_oracle_battery
from repro.cluster.deploy import ReplicaGroup
from repro.cluster.spec import DeploymentSpec
from repro.core.config import Variant
from repro.errors import OperationFailedError
from repro.net.asyncio_transport import AsyncClient
from repro.net.chaos_proxy import ChaosProxy, ProxyProfile
from repro.sim.faults import FaultSchedule
from repro.sim.nodes import flip_wal_byte
from repro.sim.recorder import HistoryRecorder
from repro.spec.histories import History, Invocation

__all__ = [
    "TcpChaosConfig",
    "TcpEpisodeResult",
    "run_tcp_episode",
    "run_tcp_campaign",
]


#: The variants a campaign runs, one episode each, in ``Variant`` order.
VARIANTS = tuple(variant.value for variant in Variant)
#: Each episode runs CLIENTS clients of OPS_PER_CLIENT operations; an
#: operation after the first is a write with probability WRITE_FRACTION.
CLIENTS = 2
OPS_PER_CLIENT = 3
WRITE_FRACTION = 0.6
#: Seconds the crash_restart victim stays down.
DOWN_FOR = 0.25
#: Wall-clock seconds between self-audit ticks while corruption chaos is
#: active, and the budget for the corruption victim to stabilize.
AUDIT_INTERVAL = 0.05
STABILIZE_TIMEOUT = 15.0
#: Byte-level fault rates applied by every replica's proxy.
PROXY = ProxyProfile(
    delay_rate=0.2,
    max_delay=0.005,
    drop_rate=0.04,
    truncate_rate=0.03,
    garbage_rate=0.05,
    reset_rate=0.03,
)
RETRANSMIT_INTERVAL = 0.08
OP_TIMEOUT = 30.0


@dataclass
class TcpChaosConfig:
    """One TCP chaos campaign: its seed, fault threshold and fault kinds."""

    seed: int = 0
    f: int = 1
    #: Crash one replica mid-episode and recover it from its data
    #: directory on the same port.
    crash_restart: bool = True
    #: Flip one byte of a live replica's on-disk WAL mid-episode and drive
    #: the self-audit / quarantine / rebuild-from-quorum loop over the real
    #: sockets until the victim stabilizes.  The victim is always distinct
    #: from the crash_restart victim and the faults are sequenced, so at
    #: most one replica is faulty at any instant (f = 1 budget).
    corruption: bool = True


@dataclass
class TcpEpisodeResult:
    """One TCP episode: verdicts plus transport-level effect counters."""

    variant: str
    verdicts: dict[str, OracleVerdict]
    operations: int
    reconnects: int
    proxy_stats: dict[str, dict[str, int]]
    #: The catalogue specs of the faults the episode fired, in firing order.
    faults: tuple[dict[str, Any], ...] = ()
    #: Self-stabilization counters summed over the replicas.
    quarantines: int = 0
    repairs: int = 0
    corrupt_records: int = 0
    error: str = ""
    #: The client history the oracles judged, one row per invocation or
    #: response with its event-loop time; a violating episode's summary
    #: row carries it as evidence.
    history: tuple[dict[str, Any], ...] = ()

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(
            name for name, v in sorted(self.verdicts.items()) if not v.ok
        )

    def to_summary(self) -> dict[str, Any]:
        row = {
            "variant": self.variant,
            "ok": self.ok,
            "violations": list(self.violations),
            "operations": self.operations,
            "reconnects": self.reconnects,
            "faults": [dict(spec) for spec in self.faults],
            "quarantines": self.quarantines,
            "repairs": self.repairs,
            "corrupt_records": self.corrupt_records,
            "proxy": {
                node: dict(sorted(stats.items()))
                for node, stats in sorted(self.proxy_stats.items())
            },
            "error": self.error,
        }
        if not self.ok:
            row["history"] = [dict(event) for event in self.history]
        return row


def _history_rows(history: History) -> tuple[dict[str, Any], ...]:
    """``history``'s events as rows: ``invoke`` names an invocation's op,
    ``return`` holds a response's value."""
    return tuple(
        {"time": e.time, "client": e.client, "invoke": e.op, "arg": e.arg}
        if isinstance(e, Invocation)
        else {"time": e.time, "client": e.client, "return": e.value}
        for e in history.events
    )


async def _client_workload(
    name: str,
    client: AsyncClient,
    recorder: HistoryRecorder,
    rng: random.Random,
) -> int:
    """Run one client's mixed script, recording invocations/responses."""
    operations = 0
    for seq in range(OPS_PER_CLIENT):
        if seq == 0 or rng.random() < WRITE_FRACTION:
            value = (name, seq, "tcp")
            recorder.record_invocation(name, "write", value)
            await client.write(value)
            recorder.record_response(name, None)
        else:
            recorder.record_invocation(name, "read", None)
            value = await client.read()
            recorder.record_response(name, value)
        operations += 1
    return operations


#: Wall-clock seconds into the episode at which the crash_restart fires.
_CRASH_AT = 0.15


async def _crash_restart(
    group: ReplicaGroup,
    victim: str,
    injected: FaultSchedule,
) -> None:
    """Kill ``victim`` process-style, then recover it in place."""
    await asyncio.sleep(_CRASH_AT)
    injected.crash_restart(_CRASH_AT, victim, DOWN_FOR)
    await group.crash(victim)
    await asyncio.sleep(DOWN_FOR)
    await group.recover(victim)


async def _corruption_chaos(
    group: ReplicaGroup,
    victim: str,
    addrs: dict[str, tuple[str, int]],
    rng: random.Random,
    injected: FaultSchedule,
    crash_task: Optional[asyncio.Task],
) -> None:
    """Inject WAL bit rot at ``victim`` and run the self-stabilization loop.

    Waits for the crash_restart fault (if any) to finish first so the two
    faults are sequenced within the f = 1 budget, flips a WAL byte once
    the victim has journalled something, then ticks every running
    replica's self-audit (:meth:`~repro.net.asyncio_transport.ReplicaServer.audit_tick`,
    which pushes the victim's repair pulls over TCP) until every replica
    is clean again or the stabilize budget runs out (which the
    stabilization oracle then reports).
    """
    if crash_task is not None:
        try:
            await asyncio.shield(crash_task)
        except Exception:  # noqa: BLE001 — the episode body re-raises it
            pass
    loop = asyncio.get_running_loop()
    deadline = loop.time() + STABILIZE_TIMEOUT
    while loop.time() < deadline:
        if flip_wal_byte(group.replicas[victim].store, rng.randrange, 0x80):
            injected.wal_bitflip(0.0, victim)
            break
        await asyncio.sleep(AUDIT_INTERVAL)
    else:
        return
    while loop.time() < deadline:
        await asyncio.sleep(AUDIT_INTERVAL)
        clean = [
            await server.audit_tick(lambda: addrs)
            for server in group.servers.values()
        ]
        if all(clean):
            return


async def _run_episode(
    config: TcpChaosConfig, variant: str, data_dir: Path
) -> TcpEpisodeResult:
    rng = random.Random(f"chaos-tcp/{config.seed}/{variant}")
    spec = DeploymentSpec(
        f=config.f,
        variant=variant,
        seed=config.seed,
        transport="tcp",
        store="file",
        data_dir=str(data_dir),
    )
    system = spec.make_config()
    client_cls = Variant.coerce(variant).client_cls

    group: Optional[ReplicaGroup] = None
    proxies: dict[str, ChaosProxy] = {}
    addrs: dict[str, tuple[str, int]] = {}
    clients: list[AsyncClient] = []
    recorder = HistoryRecorder(asyncio.get_running_loop().time)
    error_kind: Optional[str] = None
    error = ""
    operations = 0
    chaos_task: Optional[asyncio.Task] = None
    corruption_task: Optional[asyncio.Task] = None
    try:
        group = await ReplicaGroup.start(spec, system)
        for index, (rid, (host, port)) in enumerate(group.addrs.items()):
            proxies[rid] = ChaosProxy(
                host,
                port,
                profile=PROXY,
                seed=config.seed * 1000 + index,
            )
            addrs[rid] = await proxies[rid].start()

        names = [f"client:t{i}" for i in range(CLIENTS)]
        for name in names:
            client = AsyncClient(
                client_cls(name, system),
                addrs,
                retransmit_interval=RETRANSMIT_INTERVAL,
                op_timeout=OP_TIMEOUT,
            )
            await client.connect()
            clients.append(client)

        injected = FaultSchedule()
        crash_victim: Optional[str] = None
        if config.crash_restart:
            crash_victim = rng.choice(group.node_ids)
            chaos_task = asyncio.create_task(
                _crash_restart(group, crash_victim, injected)
            )

        if config.corruption:
            candidates = [rid for rid in group.node_ids if rid != crash_victim]
            corruption_task = asyncio.create_task(
                _corruption_chaos(
                    group,
                    rng.choice(candidates),
                    addrs,
                    rng,
                    injected,
                    chaos_task,
                )
            )

        try:
            counts = await asyncio.gather(
                *(
                    _client_workload(
                        name,
                        client,
                        recorder,
                        random.Random(f"chaos-tcp/{config.seed}/{variant}/{name}"),
                    )
                    for name, client in zip(names, clients)
                )
            )
            operations = sum(counts)
        except OperationFailedError as exc:
            error_kind, error = "liveness", str(exc)
        except Exception as exc:  # the no-exception oracle's evidence
            error_kind, error = "exception", f"{type(exc).__name__}: {exc}"

        if chaos_task is not None:
            await chaos_task
            chaos_task = None
        if corruption_task is not None:
            await corruption_task
            corruption_task = None

        replicas = group.replicas
        verdicts = run_oracle_battery(
            {None: recorder.history},
            replicas,
            Variant.coerce(variant).protocol,
            config.f,
            faults=injected.specs,
            error_kind=error_kind,
            error=error,
        )
        return TcpEpisodeResult(
            variant=variant,
            verdicts=verdicts,
            operations=operations,
            reconnects=sum(client.reconnects for client in clients),
            faults=tuple(injected.specs),
            proxy_stats={
                rid: proxy.stats.as_dict() for rid, proxy in proxies.items()
            },
            quarantines=sum(r.stats.quarantines for r in replicas.values()),
            repairs=sum(r.stats.repairs for r in replicas.values()),
            corrupt_records=sum(
                r.store.stats.corrupt_records for r in replicas.values()
            ),
            error=error,
            history=_history_rows(recorder.history),
        )
    finally:
        for task in (chaos_task, corruption_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        for client in clients:
            await client.close()
        for proxy in proxies.values():
            await proxy.stop()
        if group is not None:
            await group.stop()


def run_tcp_episode(
    config: TcpChaosConfig,
    variant: str,
    data_dir: Optional[Path] = None,
) -> TcpEpisodeResult:
    """Run one TCP chaos episode for ``variant`` and judge it."""
    if data_dir is not None:
        return asyncio.run(_run_episode(config, variant, Path(data_dir)))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-tcp-") as tmp:
        return asyncio.run(_run_episode(config, variant, Path(tmp)))


def run_tcp_campaign(
    config: Optional[TcpChaosConfig] = None,
    data_dir: Optional[Path] = None,
) -> dict[str, Any]:
    """One episode per configured variant; returns a summary dict.

    The summary's shape matches what :mod:`tools.chaos_ci` records: a
    per-variant verdict map plus aggregate transport-effect counters.
    """
    config = config or TcpChaosConfig()
    episodes: list[TcpEpisodeResult] = []
    for variant in VARIANTS:
        base = None if data_dir is None else Path(data_dir) / variant
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)
        episodes.append(run_tcp_episode(config, variant, base))
    return {
        "format": "repro-chaos-tcp/1",
        "seed": config.seed,
        "ok": all(ep.ok for ep in episodes),
        "episodes": [ep.to_summary() for ep in episodes],
    }
