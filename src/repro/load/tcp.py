"""Open-loop load over real asyncio TCP (wall clock).

The deterministic simulator answers the capacity and differential questions;
this module answers "does the same open-loop schedule survive contact with a
real event loop, real sockets, and wall-clock time".  It hosts one 3f+1
:class:`~repro.cluster.deploy.ReplicaGroup` in memory, keyed by a
``load-seed-<seed>`` configuration carrying the client-state budget and the
profile's writer namespace, and fires the arrival schedule at it over one
shared :class:`~repro.net.mux.MuxEndpoint`, dialled before the clock
starts: each arrival's identity is registered on the endpoint for the life
of its operation and released afterwards, so the run measures the
protocol, not ``connect()``.

Open-loop discipline is kept: the dispatcher sleeps until each scheduled
arrival and spawns the operation *without awaiting it*.  A semaphore caps
the operations in flight and the wait for a slot counts toward measured
latency, exactly like client-side queueing in the sim harness.  The
protocol forbids one identity overlapping its own operations, so a
returning identity queues behind its previous arrival.

The TCP transport hosts a single object per listener, so ``arrival.obj`` is
ignored here — every operation targets the one shared register.  Identity
scale still applies: each arrival uses its own client identity, admitted
wholesale through the registry namespace.  Use modest identity counts
(10³–10⁴); the 10⁵–10⁶ regimes belong to the virtual-time harness.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.cluster.deploy import ReplicaGroup
from repro.cluster.spec import DeploymentSpec
from repro.core.config import NamespaceWriters, SystemConfig, Variant, make_system
from repro.core.persistence import ClientStateBudget
from repro.load.generator import Arrival, OpenLoopGenerator
from repro.load.profile import DEFAULT_SLOS, LoadProfile, LoadReport
from repro.load.harness import LoadTally
from repro.net.mux import MuxEndpoint, drive

__all__ = ["run_tcp_load"]

RETRANSMIT_INTERVAL = 0.2
#: Operations in flight at once, and one operation's wall-clock budget.
MAX_CONCURRENCY = 64
OP_TIMEOUT = 10.0


async def _run_tcp_load(
    profile: LoadProfile, spec: DeploymentSpec, config: SystemConfig
) -> LoadReport:
    client_cls = Variant.coerce(spec.variant).client_cls
    group = await ReplicaGroup.start(spec, config)
    endpoint = MuxEndpoint(group.addrs)
    await endpoint.reconnect_broken()

    loop = asyncio.get_running_loop()
    started = loop.time()
    semaphore = asyncio.Semaphore(MAX_CONCURRENCY)
    turns: dict[str, asyncio.Lock] = {}
    tally = LoadTally(profile)

    async def run_op(arrival: Arrival) -> None:
        turn = turns.setdefault(arrival.client, asyncio.Lock())
        async with turn, semaphore:
            client = client_cls(arrival.client, config)
            sends = (
                client.begin_write(f"v{arrival.index}")
                if arrival.kind == "write"
                else client.begin_read()
            )
            try:
                await drive(
                    endpoint,
                    arrival.client,
                    sends,
                    done=lambda: not client.busy,
                    deliver=client.deliver,
                    retransmit=client.retransmit,
                    interval=RETRANSMIT_INTERVAL,
                    timeout=OP_TIMEOUT,
                )
            except Exception:
                return  # counted: failed = arrivals - completed
        tally.complete(
            arrival,
            loop.time() - (started + arrival.at),
            f"{arrival.index}|{arrival.client}|{arrival.kind}|"
            f"{client.op.result!r}\n",
        )

    tasks: list[asyncio.Task] = []
    for arrival in OpenLoopGenerator(profile).arrivals():
        delay = started + arrival.at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tally.arrive(arrival)
        tasks.append(asyncio.create_task(run_op(arrival)))
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    await endpoint.close()
    await group.stop()

    return tally.report(
        slos=DEFAULT_SLOS,
        elapsed=loop.time() - started,
        identity={
            "registry_resident": config.registry.resident_secrets,
            "registry_derivations": config.registry.stats.derivations,
            "registry_evictions": config.registry.stats.evictions,
        },
    )


def run_tcp_load(
    profile: LoadProfile,
    *,
    f: int = 1,
    variant: "Variant | str" = Variant.BASE,
    budget: Optional[ClientStateBudget] = None,
) -> LoadReport:
    """Run one open-loop profile against an in-process 3f+1 group over
    loopback TCP and return the report."""
    spec = DeploymentSpec(f=f, variant=variant, transport="tcp")
    config = make_system(
        f,
        seed=b"load-seed-%d" % profile.seed,
        strong=Variant.coerce(variant).strong,
        client_state_budget=budget,
        authorized_writers=NamespaceWriters(profile.namespace),
    )
    config.registry.open_namespace(profile.namespace)
    return asyncio.run(_run_tcp_load(profile, spec, config))
