"""Adapters that attach sans-I/O protocol state machines to the simulator.

:class:`ReplicaHost` is the one way a reactive ``handle(src, msg) -> reply``
state machine sits on the simulated network — BFT-BC, baseline, multi-object
and shard replicas alike; :class:`ReplicaNode` adds what only a BFT-BC
replica has (signing cost, a durable store to crash and corrupt).
:class:`MachineHost` is the client-side counterpart (registration, sending,
the retransmission timer): :class:`ClientNode` drives a correct client
through a scripted sequence of operations, recording history events and
per-operation metrics, and :class:`AdversaryNode` ticks a Byzantine one.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Sequence

from repro.core.batching import BatchCoalescer
from repro.core.client import BftBcClient
from repro.core.messages import Message
from repro.core.operations import Send
from repro.core.replica import BftBcReplica
from repro.core.timestamp import ZERO_TS
from repro.net.simnet import SimNetwork
from repro.sim.metrics import MetricsCollector, OperationSample
from repro.sim.recorder import HistoryRecorder
from repro.sim.scheduler import EventHandle, Scheduler

__all__ = [
    "ReplicaHost",
    "ReplicaNode",
    "MachineHost",
    "AdversaryNode",
    "ClientNode",
    "ScriptStep",
    "DEFAULT_RETRANSMIT_INTERVAL",
    "flip_wal_byte",
]

#: One scripted operation: ``("write", value)`` or ``("read", None)``.
ScriptStep = tuple[str, Any]

#: Default retransmission period, comfortably above typical simulated RTTs.
DEFAULT_RETRANSMIT_INTERVAL = 0.05


def flip_wal_byte(
    store: Any, offset_of: Callable[[int], int], flip: int
) -> bool:
    """XOR one byte of ``store``'s on-disk WAL at ``offset_of(size)``.

    Returns False when there is no WAL byte to damage (a volatile store, or
    nothing appended yet).
    """
    path = getattr(store, "wal_path", None)
    if path is None or not path.exists():
        return False
    size = path.stat().st_size
    if size == 0:
        return False
    offset = offset_of(size)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([original[0] ^ flip]))
    return True


class ReplicaHost:
    """Wires a reactive state machine into the simulated network.

    Anything with a ``node_id`` and ``handle(src, message) -> reply | None``
    is hosted the same way: the reply goes back to the sender and nowhere
    else (§2: replicas never talk to each other).

    With ``service_delay > 0`` the host is a single-server queue: each
    received frame occupies the replica for that much virtual time, so
    throughput is capacity-limited — the effect E19 and E21 measure.
    """

    def __init__(
        self,
        replica: Any,
        network: SimNetwork,
        scheduler: Optional[Scheduler] = None,
        *,
        service_delay: float = 0.0,
    ) -> None:
        self.replica = replica
        self.network = network
        self.scheduler = scheduler
        self.service_delay = service_delay
        #: True while crashed: queued frames are dropped unprocessed.
        self.down = False
        self._busy_until = 0.0
        network.register(replica.node_id, self._on_message)

    @property
    def node_id(self) -> str:
        return self.replica.node_id

    def crash(self) -> None:
        """Stop the node: the network stops delivering to and from it."""
        self.down = True
        self.network.crash(self.node_id)

    def _on_message(self, src: str, message: Message) -> None:
        if self.service_delay <= 0:
            self._process(src, message)
            return
        # Single-server queue: each frame occupies the replica for
        # ``service_delay`` of virtual time, starting when the CPU frees up.
        assert self.scheduler is not None
        start = max(self.scheduler.now, self._busy_until)
        self._busy_until = start + self.service_delay
        self.scheduler.call_at(
            self._busy_until, lambda: self._process(src, message)
        )

    def _process(self, src: str, message: Message) -> None:
        if self.down:
            return
        reply = self.replica.handle(src, message)
        if reply is not None:
            self.network.send(self.node_id, src, reply)


class ReplicaNode(ReplicaHost):
    """Hosts a BFT-BC replica: signing cost, crash/restart, audits.

    ``sign_delay`` models the CPU cost of one *foreground* public-key
    signature as virtual time: the reply is held back by
    ``sign_delay × (foreground signatures performed while handling)``.
    Background signatures (§3.3.2) are free by construction — that is the
    point of the optimization, and experiment E4 measures it.
    """

    replica: BftBcReplica

    def __init__(
        self,
        replica: BftBcReplica,
        network: SimNetwork,
        scheduler: Optional[Scheduler] = None,
        *,
        sign_delay: float = 0.0,
        replica_factory: Optional[Callable[[], BftBcReplica]] = None,
    ) -> None:
        super().__init__(replica, network, scheduler)
        self.sign_delay = sign_delay
        #: Rebuilds a fresh (state-machine-only) replica on restart; the
        #: default works for any replica whose constructor is
        #: ``(node_id, config, store=...)``.
        self._replica_factory = replica_factory or (
            lambda: type(self.replica)(
                self.replica.node_id,
                self.replica.config,
                store=self.replica.store,
                instrumentation=self.replica.instrumentation,
            )
        )
        self.crashes = 0
        self.restarts = 0
        #: Corruption injections performed against this node (chaos).
        self.corruptions = 0

    # -- crash / restart ----------------------------------------------------

    def crash(self) -> None:
        """Simulate a process crash: the network stops delivering to this
        node and the replica's store loses whatever a power cut would
        (everything for :class:`~repro.storage.MemoryStore`, the un-fsynced
        WAL tail for :class:`~repro.storage.FileLogStore`).  No audits run
        while down — the process is dead."""
        super().crash()
        self.replica.store.crash()
        self.crashes += 1

    def restart(self) -> None:
        """Bring the replica back: a *fresh* state machine is built around
        the surviving store and :meth:`~repro.core.replica.BftBcReplica.recover`
        rebuilds the Figure-2 state from snapshot + log before the network
        resumes delivery."""
        replica = self._replica_factory()
        replica.recover()
        self.replica = replica
        self.network.recover(self.node_id)
        self.restarts += 1
        self.down = False

    # -- corruption injection (chaos) ---------------------------------------

    def corrupt_wal(self, *, position: float = 0.5, flip: int = 0x01) -> None:
        """XOR one byte of the on-disk WAL (no-op on a volatile store).

        The live replica keeps serving from memory; the damage surfaces
        when a self-audit or restart replays the log and the record's
        integrity seal fails.
        """
        if flip_wal_byte(
            self.replica.store,
            lambda size: min(int(size * position), size - 1),
            flip,
        ):
            self.corruptions += 1

    def corrupt_snapshot(self, *, keep: float = 0.5) -> None:
        """Truncate the on-disk snapshot (no-op on a volatile store).

        Short episodes usually have not compacted yet, so if no snapshot
        file exists one is forced first (from the live, consistent state —
        the same call ``maybe_compact`` would make) and then damaged; the
        fault models "the snapshot that existed rotted".
        """
        store = self.replica.store
        path = getattr(store, "snapshot_path", None)
        if path is None:
            return
        if (not path.exists() or path.stat().st_size == 0) and (
            store.snapshot_source is not None
        ):
            store.write_snapshot(store.snapshot_source())
        if not path.exists():
            return
        size = path.stat().st_size
        if size == 0:
            return
        with open(path, "r+b") as fh:
            fh.truncate(max(0, int(size * keep)))
        self.corruptions += 1

    def perturb_state(self, *, target: str = "data", seed: int = 0) -> None:
        """Mutate one live Figure-2 field, leaving the durable log intact.

        Models a memory fault; a later self-audit replays the store into a
        twin and the fingerprint mismatch quarantines the replica.
        """
        state = self.replica._state
        if target == "data":
            state._data = ("perturbed", self.node_id, seed)
        elif target == "write_ts":
            state._write_ts = ZERO_TS
        elif target == "plist":
            state.plist._clear_silent()
        else:
            raise ValueError(f"unknown perturb target {target!r}")
        self.corruptions += 1

    # -- self-stabilization loop --------------------------------------------

    def audit_and_repair(self) -> bool:
        """One tick of the periodic self-audit; returns True when clean.

        A healthy replica runs :meth:`~repro.core.replica.BftBcReplica.self_audit`;
        a quarantined one (whether this tick quarantined it or an earlier
        recovery did) gets its repair pulls pushed onto the network —
        :meth:`~repro.core.replica.BftBcReplica.begin_repair` on the first
        tick, retransmissions to unanswered peers on later ones.
        """
        if self.down:
            return True
        replica = self.replica
        clean = True
        if not replica.quarantined:
            clean = replica.self_audit()
        else:
            clean = False
        if replica.quarantined:
            if replica.repair.active:
                sends = replica.repair_retransmit()
            else:
                sends = replica.begin_repair()
            for send in sends:
                self.network.send(self.node_id, send.dest, send.message)
        return clean

    def _process(self, src: str, message: Message) -> None:
        if self.down:
            return
        before = self.replica.stats.foreground_signs
        reply = self.replica.handle(src, message)
        if reply is None:
            return
        delay = self.sign_delay * (self.replica.stats.foreground_signs - before)
        # Behavioural laggards (e.g. byzantine.DelayingReplica) advertise a
        # fixed per-reply delay via this marker attribute.
        delay += getattr(self.replica, "reply_delay", 0.0)
        if delay > 0 and self.scheduler is not None:
            self.scheduler.call_later(
                delay,
                lambda: self.network.send(self.replica.node_id, src, reply),
            )
        else:
            self.network.send(self.replica.node_id, src, reply)


class MachineHost:
    """What every client-side machine needs from the simulator.

    Registers the machine's node id on the network, sends its :class:`Send`
    batches (through the optional coalescer) and owns the retransmission
    timer, the protocol's only liveness mechanism.  Subclasses supply
    ``_on_message`` and ``_retransmit``.
    """

    def __init__(
        self,
        node_id: str,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
        coalescer: Optional[BatchCoalescer] = None,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.scheduler = scheduler
        self.retransmit_interval = retransmit_interval
        #: Optional batching layer: when set, each send round emits at most
        #: one wire frame per destination.
        self.coalescer = coalescer
        self._retransmit_handle: Optional[EventHandle] = None
        network.register(node_id, self._on_message)

    def _send_all(self, sends: list[Send]) -> None:
        if self.coalescer is not None:
            sends = self.coalescer.coalesce(sends)
        for send in sends:
            self.network.send(self.node_id, send.dest, send.message)

    def _arm_retransmit(self) -> None:
        self._cancel_retransmit()
        self._retransmit_handle = self.scheduler.call_later(
            self._retransmit_delay(), self._retransmit
        )

    def _retransmit_delay(self) -> float:
        return self.retransmit_interval

    def _cancel_retransmit(self) -> None:
        if self._retransmit_handle is not None:
            self._retransmit_handle.cancel()
            self._retransmit_handle = None


class AdversaryNode(MachineHost):
    """Hosts a Byzantine client: any ``start / deliver / retransmit ->
    [Send]`` machine with a ``done`` flag, ticked at a fixed interval."""

    def __init__(
        self,
        machine: Any,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ) -> None:
        super().__init__(
            machine.node_id, network, scheduler,
            retransmit_interval=retransmit_interval,
        )
        self.machine = machine

    @property
    def done(self) -> bool:
        return self.machine.done

    def start(self) -> None:
        self._send_all(self.machine.start())
        self._arm_retransmit()

    def _on_message(self, src: str, message: Message) -> None:
        self._send_all(self.machine.deliver(src, message))
        if self.machine.done:
            self._cancel_retransmit()

    def _retransmit(self) -> None:
        self._send_all(self.machine.retransmit())
        if not self.machine.done:
            self._arm_retransmit()


class ClientNode(MachineHost):
    """Drives a correct client through a script of operations."""

    def __init__(
        self,
        client: BftBcClient,
        network: SimNetwork,
        scheduler: Scheduler,
        recorder: Optional[HistoryRecorder] = None,
        metrics: Optional[MetricsCollector] = None,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
        retransmit_backoff: float = 1.0,
        retransmit_jitter: float = 0.0,
        retransmit_max_interval: Optional[float] = None,
    ) -> None:
        super().__init__(
            client.node_id, network, scheduler,
            retransmit_interval=retransmit_interval,
        )
        self.client = client
        self.recorder = recorder
        self.metrics = metrics
        #: Exponential growth factor per unanswered retransmission; 1.0
        #: (the default) reproduces the historical fixed-period timer.
        self.retransmit_backoff = retransmit_backoff
        #: Jitter fraction: each delay is scaled by a uniform draw from
        #: ``[1 - jitter, 1 + jitter]`` so a fleet of clients that timed out
        #: together does not retransmit in lockstep forever.
        self.retransmit_jitter = retransmit_jitter
        self.retransmit_max_interval = retransmit_max_interval
        self._retransmit_attempts = 0
        # Seeded per node id: schedules stay deterministic run-to-run.
        self._retransmit_rng = random.Random(f"retransmit:{client.node_id}")
        #: ``(op kind, result)`` for every completed scripted operation —
        #: the committed timestamp for writes, the value for reads.
        self.results: list[tuple[str, Any]] = []
        self._script: list[ScriptStep] = []
        self._next_step = 0
        self._think_time = 0.0
        self._op_started_at = 0.0
        self._on_all_done: Optional[Callable[[], None]] = None
        self.done = True

    # -- script execution -------------------------------------------------------

    def run_script(
        self,
        script: Sequence[ScriptStep],
        *,
        think_time: float = 0.0,
        start_delay: float = 0.0,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Schedule the client to execute ``script`` sequentially."""
        self._script = list(script)
        self._next_step = 0
        self._think_time = think_time
        self._on_all_done = on_done
        self.done = not self._script
        if self._script:
            self.scheduler.call_later(start_delay, self._start_next)

    def _start_next(self) -> None:
        if self._next_step >= len(self._script):
            self._complete_script()
            return
        kind, arg = self._script[self._next_step]
        self._next_step += 1
        self._op_started_at = self.scheduler.now
        self._retransmit_attempts = 0
        if self.recorder is not None:
            self.recorder.record_invocation(self.node_id, kind, arg)
        if kind == "write":
            sends = self.client.begin_write(arg)
        elif kind == "read":
            sends = self.client.begin_read()
        else:
            raise ValueError(f"unknown script step kind {kind!r}")
        self._send_all(sends)
        self._arm_retransmit()

    def _complete_script(self) -> None:
        self.done = True
        self._cancel_retransmit()
        if self._on_all_done is not None:
            self._on_all_done()

    # -- message plumbing ----------------------------------------------------

    def _on_message(self, src: str, message: Message) -> None:
        was_busy = self.client.busy
        self._send_all(self.client.deliver(src, message))
        if was_busy and not self.client.busy:
            self._on_op_complete()

    def _on_op_complete(self) -> None:
        self._cancel_retransmit()
        op = self.client.op
        assert op is not None
        self.results.append((op.op_name, op.result))
        latency = self.scheduler.now - self._op_started_at
        if self.recorder is not None:
            value = op.result if op.op_name == "read" else None
            self.recorder.record_response(self.node_id, value)
        if self.metrics is not None:
            fast = getattr(op, "fast_path", False)
            self.metrics.record(
                OperationSample(
                    client=self.node_id,
                    kind=op.op_name,
                    phases=op.phases,
                    latency=latency,
                    fast_path=fast,
                    fell_back=getattr(op, "fell_back", False),
                )
            )
        if self._next_step >= len(self._script):
            self._complete_script()
        else:
            self.scheduler.call_later(self._think_time, self._start_next)

    # -- retransmission -----------------------------------------------------

    def _retransmit_delay(self) -> float:
        """Next timer period: exponential backoff with deterministic jitter."""
        delay = self.retransmit_interval * (
            self.retransmit_backoff**self._retransmit_attempts
        )
        if self.retransmit_max_interval is not None:
            delay = min(delay, self.retransmit_max_interval)
        if self.retransmit_jitter:
            delay *= 1.0 + self.retransmit_jitter * (
                2.0 * self._retransmit_rng.random() - 1.0
            )
        return delay

    def _retransmit(self) -> None:
        if not self.client.busy:
            return
        self._retransmit_attempts += 1
        sends = self.client.retransmit()
        self._send_all(sends)
        if self.metrics is not None:
            self.metrics.retransmit_ticks += 1
        if self.client.busy:
            self._arm_retransmit()
        else:
            # The retransmit tick itself completed the operation (the
            # optimized protocol's fallback decision can fire here).
            self._on_op_complete()
