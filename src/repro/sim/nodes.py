"""Adapters that attach sans-I/O protocol state machines to the simulator.

:class:`ReplicaHost` is the one way a reactive ``handle(src, msg) -> reply``
state machine sits on the simulated network — BFT-BC, baseline, multi-object
and shard replicas alike; :class:`ReplicaNode` adds what only a BFT-BC
replica has (signing cost, a durable store to crash and corrupt).
:class:`MachineHost` is the client-side counterpart (registration, sending,
the one retransmission timer) for every sans-I/O client machine — hosted as
is for a Byzantine client; :class:`ClientNode` drives a correct client
through a scripted sequence of operations, recording history events and
per-operation metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.core.client import BftBcClient
from repro.core.messages import Message
from repro.core.operations import Send
from repro.core.replica import BftBcReplica
from repro.net.simnet import SimNetwork
from repro.sim.metrics import MetricsCollector, OperationSample
from repro.sim.recorder import HistoryRecorder
from repro.sim.scheduler import EventHandle, Scheduler

__all__ = [
    "ReplicaHost",
    "ReplicaNode",
    "MachineHost",
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

    def _send_all(self, sends: list[Send]) -> None:
        """Send what the replica's own client-side roles return (state
        transfer, quorum repair)."""
        for send in sends:
            self.network.send(self.node_id, send.dest, send.message)


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
        """Mutate one live durable field, leaving the durable log intact.

        Models a memory fault (see
        :meth:`~repro.core.persistence.DurableReplicaState.perturb`); a
        later self-audit replays the store into a twin and the fingerprint
        mismatch quarantines the replica.
        """
        self.replica._state.perturb(target, ("perturbed", self.node_id, seed))
        self.corruptions += 1

    # -- self-stabilization loop --------------------------------------------

    def audit_and_repair(self) -> bool:
        """One tick of the periodic self-audit
        (:meth:`~repro.core.replica.BftBcReplica.audit_tick`), its repair
        pulls pushed onto the network; returns True when clean.  A crashed
        node audits nothing (and counts as clean)."""
        if self.down:
            return True
        self._send_all(self.replica.audit_tick())
        return not self.replica.quarantined

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
    """Hosts one client-side sans-I/O machine: the simulator's twin of
    :func:`repro.net.mux.drive`.

    ``machine`` supplies ``node_id``, ``deliver(src, msg) -> [Send]`` and
    ``retransmit() -> [Send]``.  The host registers the node id, sends every
    :class:`Send` and owns the single retransmission timer, the protocol's
    only liveness mechanism, armed by :meth:`begin`.  After every delivery
    and every tick it asks :meth:`_finished` whether the operation in flight
    has ended and then calls :meth:`_on_done` exactly once.  A subclass only says what an
    operation is and what happens when it ends; hosted as is, a machine with
    a ``done`` flag (a Byzantine client) runs until the flag is set.
    """

    def __init__(
        self,
        machine: Any,
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ) -> None:
        self.machine = machine
        self.node_id: str = machine.node_id
        self.network = network
        self.scheduler = scheduler
        self.retransmit_interval = retransmit_interval
        #: The retransmission timer; set exactly while an operation is in
        #: flight.
        self._timer: Optional[EventHandle] = None
        network.register(self.node_id, self._on_message)

    def begin(self, sends: list[Send]) -> None:
        """Start an operation: send its first round and arm the timer."""
        if self._timer is not None:
            self._timer.cancel()
        self._send_all(sends)
        self._timer = self.scheduler.call_later(
            self.retransmit_interval, self._tick
        )

    def close(self) -> None:
        """Stop the timer and take the node id off the network."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.network.unregister(self.node_id)

    def _finished(self) -> bool:
        """Whether the operation in flight has ended."""
        return self.machine.done

    def _on_done(self) -> None:
        """Called once per operation, right after it ended."""

    def _retransmit(self) -> list[Send]:
        return self.machine.retransmit()

    def _send_all(self, sends: list[Send]) -> None:
        for send in sends:
            self.network.send(self.node_id, send.dest, send.message)

    def _on_message(self, src: str, message: Message) -> None:
        self._send_all(self.machine.deliver(src, message))
        self._settle()

    def _tick(self) -> None:
        self._send_all(self._retransmit())
        if not self._settle():
            self._timer = self.scheduler.call_later(
                self.retransmit_interval, self._tick
            )

    def _settle(self) -> bool:
        """End the operation in flight if it has finished; True if it did."""
        if self._timer is None or not self._finished():
            return False
        self._timer.cancel()
        self._timer = None
        self._on_done()
        return True


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
    ) -> None:
        super().__init__(
            client, network, scheduler, retransmit_interval=retransmit_interval
        )
        self.client = client
        self.recorder = recorder
        self.metrics = metrics
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
        if self.recorder is not None:
            self.recorder.record_invocation(self.node_id, kind, arg)
        if kind == "write":
            sends = self.client.begin_write(arg)
        elif kind == "read":
            sends = self.client.begin_read()
        else:
            raise ValueError(f"unknown script step kind {kind!r}")
        self.begin(sends)

    def _complete_script(self) -> None:
        self.done = True
        if self._on_all_done is not None:
            self._on_all_done()

    # -- host hooks ---------------------------------------------------------

    def _finished(self) -> bool:
        return not self.client.busy

    def _retransmit(self) -> list[Send]:
        if self.metrics is not None:
            self.metrics.retransmit_ticks += 1
        return self.client.retransmit()

    def _on_done(self) -> None:
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
