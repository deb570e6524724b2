"""Seeded simulation of an unreliable asynchronous network.

Implements the §2 network model: messages "may fail to deliver, delay them,
duplicate them, corrupt them, or deliver them out of order", with no bound on
delays.  The fair-loss liveness assumption ("if a client keeps retransmitting
a request to a correct server, the reply ... will eventually be received")
holds as long as ``drop_rate < 1``.

Every message is serialised through the canonical codec on send and parsed
once per frame in flight on delivery, so byte counts are the real wire sizes
and corruption is applied to actual bytes.  A broadcast is encoded once and
its 3f+1 copies carry the same bytes; the first copy to land parses them and
every later copy hands its receiver that same frozen message.  A corrupted
copy carries different bytes, so it is parsed (and rejected) on its own.
Reordering arises naturally from randomly drawn per-message delays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.messages import Message, message_from_wire, message_wire_bytes
from repro.encoding import canonical_decode
from repro.errors import NetworkError, ProtocolError, EncodingError

if TYPE_CHECKING:  # imported lazily to avoid a package cycle with repro.sim
    from repro.sim.scheduler import Scheduler

__all__ = ["LinkProfile", "NetworkStats", "SimNetwork"]

Handler = Callable[[str, Message], None]


@dataclass(frozen=True)
class LinkProfile:
    """Stochastic behaviour of a link (or of the whole network).

    Attributes:
        min_delay / max_delay: one-way delay drawn uniformly per message.
        drop_rate: probability a message is silently lost.
        duplicate_rate: probability a message is delivered twice.
        corrupt_rate: probability one byte of the encoding is flipped.
        reorder_rate: probability a message is held back past several
            delay windows, so messages sent after it overtake it.  Mild
            reordering already arises from the uniform delay draw; this
            knob forces the aggressive out-of-order deliveries the §2
            model permits ("deliver them out of order").
    """

    min_delay: float = 0.001
    max_delay: float = 0.010
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.drop_rate <= 1:
            raise NetworkError(f"drop_rate {self.drop_rate} out of range")
        if not 0 <= self.duplicate_rate <= 1:
            raise NetworkError(f"duplicate_rate {self.duplicate_rate} out of range")
        if not 0 <= self.corrupt_rate <= 1:
            raise NetworkError(f"corrupt_rate {self.corrupt_rate} out of range")
        if not 0 <= self.reorder_rate <= 1:
            raise NetworkError(f"reorder_rate {self.reorder_rate} out of range")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise NetworkError(
                f"invalid delay range [{self.min_delay}, {self.max_delay}]"
            )

    @classmethod
    def reliable(cls) -> "LinkProfile":
        """Loss-free, low-jitter profile for baseline measurements."""
        return cls()

    @classmethod
    def lossy(cls, drop_rate: float = 0.05) -> "LinkProfile":
        return cls(drop_rate=drop_rate, max_delay=0.02)

    @classmethod
    def harsh(cls) -> "LinkProfile":
        """Aggressive loss, duplication, corruption and jitter."""
        return cls(
            min_delay=0.001,
            max_delay=0.050,
            drop_rate=0.10,
            duplicate_rate=0.05,
            corrupt_rate=0.02,
        )


#: The distinct causes a message can be lost to, as recorded in
#: :attr:`NetworkStats.dropped_by_reason`.
DROP_REASONS = (
    "link-loss",      # the stochastic drop_rate fired
    "partitioned",    # src/dst pair currently partitioned
    "blocked-kind",   # the message's kind is blocked at its destination
    "crashed",        # src or dst crashed (at send or while in flight)
    "parse-failure",  # delivered bytes failed to decode (corruption)
    "unregistered",   # destination has no handler
)


@dataclass
class NetworkStats:
    """Aggregate traffic counters (experiments E2/E8 read these)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_corrupted: int = 0
    messages_reordered: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Frames parsed on delivery: one per distinct frame in flight, not one
    #: per copy (a clean 3f+1 broadcast delivers four copies, parses once).
    messages_decoded: int = 0
    sent_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    dropped_by_kind: dict[str, int] = field(default_factory=dict)
    dropped_by_reason: dict[str, int] = field(default_factory=dict)

    def record_send(self, kind: str, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size

    def record_drop(self, kind: str, reason: str) -> None:
        self.messages_dropped += 1
        self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_corrupted = 0
        self.messages_reordered = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.messages_decoded = 0
        self.sent_by_kind.clear()
        self.bytes_by_kind.clear()
        self.dropped_by_kind.clear()
        self.dropped_by_reason.clear()


class SimNetwork:
    """The simulated network: point-to-point, unreliable, asynchronous."""

    def __init__(
        self,
        scheduler: "Scheduler",
        profile: LinkProfile | None = None,
        seed: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.profile = profile if profile is not None else LinkProfile.reliable()
        self._rng = random.Random(seed)
        self._handlers: dict[str, Handler] = {}
        self._link_overrides: dict[tuple[str, str], LinkProfile] = {}
        self._partitioned: set[tuple[str, str]] = set()
        self._crashed: set[str] = set()
        self._blocked_kinds: dict[str, set[str]] = {}
        # Frame bytes -> [copies still in flight, decoded message or None].
        # An entry dies with its last copy, so the table holds only what is
        # in flight.
        self._in_flight: dict[bytes, list] = {}
        self.stats = NetworkStats()
        #: Optional observer called as ``tap(event, src, dst, message_kind)``
        #: with event in {"sent", "dropped", "corrupted", "delivered"}.
        #: Used by repro.sim.tracing.MessageTrace.
        self.tap: Callable[[str, str, str, str], None] | None = None

    # -- topology management -------------------------------------------------

    def register(self, node_id: str, handler: Handler) -> None:
        """Attach a node; ``handler(src, message)`` runs on each delivery."""
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        """Detach a node; in-flight messages to it drop as ``unregistered``.

        Lets transient endpoints (the open-loop load harness parks finished
        client identities) come and go without the handler table growing
        with every identity ever seen.  Unknown ids are a no-op.
        """
        self._handlers.pop(node_id, None)
        self._crashed.discard(node_id)

    def set_link_profile(self, src: str, dst: str, profile: LinkProfile) -> None:
        """Override the stochastic profile of one directed link."""
        self._link_overrides[(src, dst)] = profile

    def partition(self, a: str, b: str) -> None:
        """Cut both directions between ``a`` and ``b`` until healed."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def block_kinds(self, dst: str, kinds: "Iterable[str]") -> None:
        """Drop inbound messages of the given KINDs at ``dst`` until
        unblocked.  Models a selective outage (e.g. a middlebox filtering
        the fast-path traffic) that forces clients onto the signed
        fallback without touching other message types."""
        self._blocked_kinds.setdefault(dst, set()).update(kinds)

    def unblock_kinds(self, dst: str, kinds: "Iterable[str] | None" = None) -> None:
        """Heal a selective block; ``kinds=None`` clears every block at
        ``dst``."""
        if kinds is None:
            self._blocked_kinds.pop(dst, None)
            return
        blocked = self._blocked_kinds.get(dst)
        if blocked is None:
            return
        blocked.difference_update(kinds)
        if not blocked:
            del self._blocked_kinds[dst]

    def crash(self, node_id: str) -> None:
        """Stop delivering anything to/from ``node_id`` (benign crash)."""
        self._crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: str) -> bool:
        return node_id in self._crashed

    # -- sending ---------------------------------------------------------------

    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` through the lossy fabric.

        Serialisation goes through the encode-once wire cache: a message
        fanned out to 3f+1 replicas (or retransmitted) is canonically
        encoded exactly once, and every link reuses the same bytes.  Each
        scheduled copy is counted in the in-flight table, so the copies of
        one frame share one decode on delivery.
        """
        encoded = message_wire_bytes(message)
        self.stats.record_send(message.KIND, len(encoded))
        if self.tap is not None:
            self.tap("sent", src, dst, message.KIND)
        if src in self._crashed or dst in self._crashed:
            self._drop(src, dst, message.KIND, "crashed")
            return
        if (src, dst) in self._partitioned:
            self._drop(src, dst, message.KIND, "partitioned")
            return
        if message.KIND in self._blocked_kinds.get(dst, ()):
            self._drop(src, dst, message.KIND, "blocked-kind")
            return
        profile = self._link_overrides.get((src, dst), self.profile)
        if self._rng.random() < profile.drop_rate:
            self._drop(src, dst, message.KIND, "link-loss")
            return
        if profile.corrupt_rate and self._rng.random() < profile.corrupt_rate:
            encoded = self._flip_byte(encoded)
            self.stats.messages_corrupted += 1
            if self.tap is not None:
                self.tap("corrupted", src, dst, message.KIND)
        copies = 1
        if profile.duplicate_rate and self._rng.random() < profile.duplicate_rate:
            copies = 2
            self.stats.messages_duplicated += 1
        entry = self._in_flight.get(encoded)
        if entry is None:
            self._in_flight[encoded] = [copies, None]
        else:
            entry[0] += copies
        for _ in range(copies):
            delay = self._rng.uniform(profile.min_delay, profile.max_delay)
            if profile.reorder_rate and self._rng.random() < profile.reorder_rate:
                # Hold the copy back past several delay windows so that
                # messages sent after it overtake it on delivery.
                window = max(profile.max_delay, 1e-3)
                delay += self._rng.uniform(window, 4.0 * window)
                self.stats.messages_reordered += 1
            self.scheduler.call_later(
                delay,
                lambda data=encoded, kind=message.KIND: self._deliver(
                    src, dst, data, kind
                ),
            )

    def _drop(self, src: str, dst: str, kind: str, reason: str) -> None:
        self.stats.record_drop(kind, reason)
        if self.tap is not None:
            self.tap("dropped", src, dst, kind)

    def _flip_byte(self, data: bytes) -> bytes:
        if not data:
            return data
        index = self._rng.randrange(len(data))
        mutated = bytearray(data)
        mutated[index] ^= 1 << self._rng.randrange(8)
        return bytes(mutated)

    def _deliver(self, src: str, dst: str, encoded: bytes, kind: str) -> None:
        entry = self._in_flight[encoded]
        entry[0] -= 1
        if not entry[0]:
            del self._in_flight[encoded]
        if dst in self._crashed:
            self._drop(src, dst, kind, "crashed")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._drop(src, dst, kind, "unregistered")
            return
        message = entry[1]
        if message is None:
            self.stats.messages_decoded += 1
            try:
                message = message_from_wire(canonical_decode(encoded))
            except (EncodingError, ProtocolError):
                # A corrupted message fails to parse and is discarded,
                # exactly like a loss — the retransmission machinery recovers.
                self._drop(src, dst, kind, "parse-failure")
                return
            # Messages are frozen and no receiver mutates one, so the later
            # copies of this frame can share it.
            entry[1] = message
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered += len(encoded)
        if self.tap is not None:
            self.tap("delivered", src, dst, message.KIND)
        handler(src, message)

    # -- convenience -------------------------------------------------------------

    def broadcast(self, src: str, dests: tuple[str, ...], message: Message) -> None:
        for dst in dests:
            self.send(src, dst, message)

    @property
    def node_ids(self) -> frozenset[str]:
        return frozenset(self._handlers)
