"""Simulator adapter for multi-object clients.

Drives a :class:`~repro.core.multiobject.MultiObjectClient` — or a
:class:`~repro.shard.router.ShardRouter`, which exposes the same per-object
surface and migrates in-flight operations across epoch changes itself —
through a script of ``(obj, kind, value)`` steps.  Steps on different
objects are issued concurrently up to ``max_in_flight``; per-object
operations remain sequential, matching the §4.1 model.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.core.batching import BatchCoalescer, BatchStats
from repro.core.multiobject import MultiObjectClient
from repro.core.messages import Message
from repro.net.simnet import SimNetwork
from repro.shard.router import ShardRouter
from repro.sim.nodes import DEFAULT_RETRANSMIT_INTERVAL, MachineHost
from repro.sim.scheduler import Scheduler
from repro.spec.histories import History, Invocation, Response

__all__ = ["MultiObjectClientNode", "MultiScriptStep"]

#: ``(object id, "read" | "write", value-or-None)``
MultiScriptStep = tuple[str, str, Any]


class MultiObjectClientNode(MachineHost):
    """Runs a multi-object script over the simulated network.

    With a coalescer each send round (dispatch, delivery follow-ups,
    retransmission sweep) emits at most one wire frame per destination.
    """

    def __init__(
        self,
        client: Union[MultiObjectClient, ShardRouter],
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        max_in_flight: int = 4,
        record_history: bool = False,
        coalescer: Optional[BatchCoalescer] = None,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ) -> None:
        super().__init__(
            client.node_id, network, scheduler,
            retransmit_interval=retransmit_interval, coalescer=coalescer,
        )
        self.client = client
        self.max_in_flight = max_in_flight
        self.results: list[tuple[MultiScriptStep, Any]] = []
        self.done = True
        #: Per-object histories (obj -> History), populated when
        #: ``record_history`` is on.  Each object gets its own history so
        #: the per-client-per-object sequentiality of §4.1 holds.
        self.histories: dict[str, History] = {} if record_history else {}
        self._record = record_history
        self._pending: list[MultiScriptStep] = []
        self._in_flight: dict[str, MultiScriptStep] = {}

    def run_script(self, script: Sequence[MultiScriptStep]) -> None:
        self._pending = list(script)
        self.done = not self._pending
        if self._pending:
            self.scheduler.call_later(0.0, self._dispatch)
            self._arm_retransmit()

    # -- scheduling ------------------------------------------------------------

    def _dispatch(self) -> None:
        # Sends from every step issued this round are accumulated and sent
        # as one round, so the coalescer can merge same-replica frames
        # across objects (k in-flight ops -> one frame per replica).
        round_sends = []
        index = 0
        while index < len(self._pending) and len(self._in_flight) < self.max_in_flight:
            obj, kind, value = self._pending[index]
            if obj in self._in_flight:
                index += 1  # that object is busy: keep order, try the next
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
            if kind == "write":
                round_sends.extend(self.client.begin_write(obj, value))
            elif kind == "read":
                round_sends.extend(self.client.begin_read(obj))
            else:
                raise ValueError(f"unknown step kind {kind!r}")
        self._send_all(round_sends)

    def _on_message(self, src: str, message: Message) -> None:
        self._send_all(self.client.deliver(src, message))
        completed = [
            obj for obj in list(self._in_flight) if not self.client.busy(obj)
        ]
        for obj in completed:
            step = self._in_flight.pop(obj)
            result = self.client.result(obj)
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

    def _retransmit(self) -> None:
        if self.done:
            return
        self._send_all(self.client.retransmit())
        self._arm_retransmit()

    @property
    def batch_stats(self) -> Optional[BatchStats]:
        """Coalescing counters, when batching is enabled."""
        return None if self.coalescer is None else self.coalescer.stats
