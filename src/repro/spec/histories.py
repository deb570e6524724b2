"""Histories, verifiable histories, and well-formedness (§4.1).

An execution is modelled as a sequence of events: operation invocations,
matching responses, and ``stop`` events of faulty clients.  A *verifiable
history* contains the invocations/responses of **correct** clients plus the
stop events of faulty ones — we cannot model what a Byzantine process "does",
only what correct processes observed and when faulty ones were cut off.

The recorder tags events with the virtual times at which they occurred so the
checkers can derive the real-time partial order ``<H`` (``o0 <H o1`` iff
``rsp(o0)`` precedes ``inv(o1)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.errors import HistoryError

__all__ = [
    "Invocation",
    "Response",
    "StopEvent",
    "Event",
    "OperationRecord",
    "History",
]


@dataclass(frozen=True)
class Invocation:
    """``<c : x.op>`` — client ``c`` invokes ``op`` on object ``x``."""

    client: str
    obj: str
    op: str
    arg: Any
    time: float


@dataclass(frozen=True)
class Response:
    """``<c : x.rtval>`` — the response matching ``c``'s open invocation."""

    client: str
    obj: str
    value: Any
    time: float


@dataclass(frozen=True)
class StopEvent:
    """``<c : stop>`` — faulty client ``c`` leaves the system (§4.1.1)."""

    client: str
    time: float


Event = Invocation | Response | StopEvent


@dataclass(frozen=True)
class OperationRecord:
    """A completed (or pending) operation: an invocation and its response."""

    client: str
    obj: str
    op: str
    arg: Any
    result: Any
    invoked_at: float
    responded_at: Optional[float]  # None: pending at the end of the history

    @property
    def complete(self) -> bool:
        return self.responded_at is not None

    def precedes(self, other: "OperationRecord | StopEvent") -> bool:
        """Real-time precedence ``self <H other``."""
        if self.responded_at is None:
            return False
        if isinstance(other, StopEvent):
            return self.responded_at < other.time
        return self.responded_at < other.invoked_at


class History:
    """An ordered event log with §4.1 utilities.

    Events must be appended in non-decreasing time order (the recorder does
    this naturally since it runs inside the simulator).
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self.events: list[Event] = []
        for event in events:
            self.append(event)

    def append(self, event: Event) -> None:
        if self.events and event.time < self.events[-1].time:
            raise HistoryError(
                f"event at time {event.time} appended after time "
                f"{self.events[-1].time}"
            )
        self.events.append(event)

    # -- §4.1 definitions ------------------------------------------------------

    def client_subhistory(self, client: str) -> "History":
        """``H|c``: the subsequence of events whose client is ``c``."""
        sub = History()
        sub.events = [e for e in self.events if e.client == client]
        return sub

    def object_subhistory(self, obj: str) -> "History":
        """``H|x``: the subsequence of events on object ``x`` (stops kept)."""
        sub = History()
        sub.events = [
            e
            for e in self.events
            if isinstance(e, StopEvent) or e.obj == obj
        ]
        return sub

    def is_sequential_for_client(self, client: str) -> bool:
        """Check that ``H|c`` alternates invocation/response correctly."""
        open_invocation: Optional[Invocation] = None
        stopped = False
        for event in self.client_subhistory(client).events:
            if stopped:
                return False
            if isinstance(event, Invocation):
                if open_invocation is not None:
                    return False
                open_invocation = event
            elif isinstance(event, Response):
                if open_invocation is None:
                    return False
                if event.obj != open_invocation.obj:
                    return False
                open_invocation = None
            else:  # StopEvent
                stopped = True
        return True

    def is_well_formed(self) -> bool:
        """A history is well-formed if every client subhistory is sequential."""
        return all(self.is_sequential_for_client(c) for c in self.clients())

    def clients(self) -> frozenset[str]:
        return frozenset(e.client for e in self.events)

    def stop_time(self, client: str) -> Optional[float]:
        for event in self.events:
            if isinstance(event, StopEvent) and event.client == client:
                return event.time
        return None

    # -- operations ------------------------------------------------------------

    def operations(self) -> list[OperationRecord]:
        """Pair invocations with their matching responses, in invocation order.

        A trailing invocation without a response becomes a pending operation
        (``responded_at is None``).
        """
        open_by_client: dict[str, Invocation] = {}
        records: list[OperationRecord] = []
        order: list[tuple[float, int]] = []
        for event in self.events:
            if isinstance(event, Invocation):
                if event.client in open_by_client:
                    raise HistoryError(
                        f"client {event.client} has overlapping invocations"
                    )
                open_by_client[event.client] = event
            elif isinstance(event, Response):
                inv = open_by_client.pop(event.client, None)
                if inv is None:
                    raise HistoryError(
                        f"response without invocation for client {event.client}"
                    )
                records.append(
                    OperationRecord(
                        client=inv.client,
                        obj=inv.obj,
                        op=inv.op,
                        arg=inv.arg,
                        result=event.value,
                        invoked_at=inv.time,
                        responded_at=event.time,
                    )
                )
        for inv in open_by_client.values():
            records.append(
                OperationRecord(
                    client=inv.client,
                    obj=inv.obj,
                    op=inv.op,
                    arg=inv.arg,
                    result=None,
                    invoked_at=inv.time,
                    responded_at=None,
                )
            )
        records.sort(key=lambda r: r.invoked_at)
        return records

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
