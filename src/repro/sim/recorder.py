"""Recording verifiable histories at the client boundary.

The recorder produces the §4.1 event stream: invocations and responses of
*correct* clients, plus stop events of faulty ones.  Byzantine clients do not
get invocation/response events (their behaviour has no specification); their
effects enter the history only through what correct readers observe — which
is exactly how the correctness conditions are stated.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.spec.histories import History, Invocation, Response, StopEvent

__all__ = ["HistoryRecorder"]


class HistoryRecorder:
    """Appends timestamped events to a :class:`~repro.spec.histories.History`.

    ``clock`` stamps each event: the scheduler's virtual time on the
    simulator, the event loop's ``time`` on real sockets.
    """

    def __init__(self, clock: Callable[[], float], obj: str = "x") -> None:
        self._clock = clock
        self.obj = obj
        self.history = History()

    def record_invocation(self, client: str, op: str, arg: Any = None) -> None:
        self.history.append(
            Invocation(
                client=client,
                obj=self.obj,
                op=op,
                arg=arg,
                time=self._clock(),
            )
        )

    def record_response(self, client: str, value: Any = None) -> None:
        self.history.append(
            Response(
                client=client,
                obj=self.obj,
                value=value,
                time=self._clock(),
            )
        )

    def record_stop(self, client: str) -> None:
        """Record that a faulty client has been removed from operation."""
        self.history.append(StopEvent(client=client, time=self._clock()))
