"""Simulator adapter for multi-object clients.

Drives a :class:`~repro.core.multiobject.MultiObjectClient` — or a
:class:`~repro.shard.router.ShardRouter`, which exposes the same per-object
surface and migrates in-flight operations across epoch changes itself —
through a script of ``(obj, kind, value)`` steps.  Steps on different
objects are issued concurrently up to ``max_in_flight``; per-object
operations remain sequential, matching the §4.1 model.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

from repro.core.multiobject import MultiObjectClient
from repro.net.simnet import SimNetwork
from repro.shard.router import ShardRouter
from repro.sim.nodes import DEFAULT_RETRANSMIT_INTERVAL, MachineHost
from repro.sim.recorder import HistoryRecorder
from repro.sim.scheduler import Scheduler
from repro.spec.histories import History

__all__ = ["MultiObjectClientNode", "MultiScriptStep"]

#: ``(object id, "read" | "write", value-or-None)``
MultiScriptStep = tuple[str, str, Any]


class MultiObjectClientNode(MachineHost):
    """Runs a multi-object script over the simulated network.

    The whole script is the host's one operation: the retransmission timer
    runs from :meth:`run_script` until the last step completes.
    """

    def __init__(
        self,
        client: Union[MultiObjectClient, ShardRouter],
        network: SimNetwork,
        scheduler: Scheduler,
        *,
        max_in_flight: int = 4,
        record_history: bool = False,
        retransmit_interval: float = DEFAULT_RETRANSMIT_INTERVAL,
    ) -> None:
        super().__init__(
            client, network, scheduler,
            retransmit_interval=retransmit_interval,
        )
        self.client = client
        self.max_in_flight = max_in_flight
        self.results: list[tuple[MultiScriptStep, Any]] = []
        self.done = True
        self._record = record_history
        #: One recorder per object, so the per-client-per-object
        #: sequentiality of §4.1 holds.
        self._recorders: dict[str, HistoryRecorder] = {}
        self._pending: list[MultiScriptStep] = []
        self._in_flight: dict[str, MultiScriptStep] = {}

    @property
    def histories(self) -> dict[str, History]:
        """Per-object histories (obj -> History), populated when
        ``record_history`` is on."""
        return {obj: rec.history for obj, rec in self._recorders.items()}

    def run_script(self, script: Sequence[MultiScriptStep]) -> None:
        self._pending = list(script)
        self.done = not self._pending
        if self._pending:
            self.scheduler.call_later(0.0, self._dispatch)
            self.begin([])

    # -- scheduling ------------------------------------------------------------

    def _recorder(self, obj: str) -> HistoryRecorder:
        recorder = self._recorders.get(obj)
        if recorder is None:
            recorder = self._recorders[obj] = HistoryRecorder(
                lambda: self.scheduler.now, obj=obj
            )
        return recorder

    def _dispatch(self) -> None:
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
                self._recorder(obj).record_invocation(self.node_id, kind, value)
            if kind == "write":
                round_sends.extend(self.client.begin_write(obj, value))
            elif kind == "read":
                round_sends.extend(self.client.begin_read(obj))
            else:
                raise ValueError(f"unknown step kind {kind!r}")
        self._send_all(round_sends)

    # -- host hooks ------------------------------------------------------------

    def _finished(self) -> bool:
        """Harvest the steps that completed, dispatch the next ones, and
        report whether the script has run out."""
        completed = [
            obj for obj in list(self._in_flight) if not self.client.busy(obj)
        ]
        for obj in completed:
            step = self._in_flight.pop(obj)
            result = self.client.result(obj)
            self.results.append((step, result))
            if self._record:
                value = result if step[1] == "read" else None
                self._recorder(obj).record_response(self.node_id, value)
        if completed:
            self._dispatch()
        return not self._pending and not self._in_flight

    def _on_done(self) -> None:
        self.done = True
