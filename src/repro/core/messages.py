"""Protocol messages for BFT-BC (base §3.2, optimized §6.2, strong §7.2).

Every message is an immutable dataclass that declares itself once: a
``KIND`` tag and, per field, the wire key and a :class:`WireType` from the
closed set below (:func:`wire_field`).  :func:`register_message` reads that
declaration when the class is created; the one ``to_wire`` / ``from_wire``
pair on :class:`Message` encodes and validates every kind from it, so no
message class spells its own layout and none can forget a check.  The wire
form is a plain dict of canonically encodable values, so any message
round-trips through :func:`repro.encoding.canonical_encode`.

The registry maps kind tags to classes; the baselines, the shard layer and
the two envelopes register their own message types through
:func:`register_message` with the same field types.  :data:`MESSAGE_MODULES`
names every module that declares kinds: the registry loads them, in that
order, before it lists the kinds or refuses one, so whether a frame
decodes never depends on what a process happened to import.

Per the paper, replicas silently discard invalid requests — there are no
negative acknowledgements — so the message set is exactly the requests and
replies named in Figures 1 and 2 plus the optimized/strong variants, and a
wire dict of the wrong shape is a :class:`~repro.errors.ProtocolError` at
the boundary, before any handler runs.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, NamedTuple, Optional, TypeVar

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.timestamp import Timestamp
from repro.crypto.commitments import ProofOfWriting
from repro.crypto.signatures import Signature
from repro.encoding import canonical_encode
from repro.errors import ProtocolError

__all__ = [
    "Message",
    "WireType",
    "WireField",
    "wire_field",
    "optional",
    "tuple_of",
    "BYTES",
    "STR",
    "INT",
    "DICT",
    "VALUE",
    "TIMESTAMP",
    "SIGNATURE",
    "PREPARE_CERT",
    "WRITE_CERT",
    "PROOF",
    "MAC_VECTOR",
    "register_message",
    "registered_messages",
    "message_to_wire",
    "message_from_wire",
    "message_wire_bytes",
    "WireCacheStats",
    "wire_cache_stats",
    "reset_wire_cache_stats",
    "ReadTsRequest",
    "ReadTsReply",
    "PrepareRequest",
    "PrepareReply",
    "WriteRequest",
    "WriteReply",
    "ReadRequest",
    "ReadReply",
    "ReadTsPrepRequest",
    "ReadTsPrepReply",
    "FastPrepRequest",
    "FastPrepReply",
    "FastWriteRequest",
    "FastWriteReply",
    "RepairRequest",
    "RepairReply",
]


# ---------------------------------------------------------------------------
# The closed set of field types
# ---------------------------------------------------------------------------


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class WireType:
    """One member of the closed set of types a message field may declare.

    ``decode`` turns a wire value into the field value and raises on any
    malformed shape; ``encode`` is its inverse.  A field the set cannot
    express grows the set by one named type here, never a per-class codec.
    """

    name: str
    decode: Callable[[Any], Any] = dataclasses.field(repr=False)
    encode: Callable[[Any], Any] = dataclasses.field(repr=False, default=_same)


def _leaf(name: str, python_type: type) -> WireType:
    """A value that is its own wire form, checked for its exact type.

    The canonical decoder only ever produces the exact builtin types, so an
    identity test is enough, and it keeps ``True`` from passing as an int.
    """

    def decode(value: Any) -> Any:
        if type(value) is not python_type:
            raise ProtocolError(f"expected {name}, got {value!r}")
        return value

    return WireType(name, decode)


def _macvec(value: Any) -> tuple[tuple[str, bytes], ...]:
    """Parse a ``((receiver, mac), ...)`` MAC vector, validating shape."""
    if not isinstance(value, tuple):
        raise ProtocolError(f"malformed MAC vector: {value!r}")
    for entry in value:
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], bytes)
        ):
            raise ProtocolError(f"malformed MAC vector entry: {entry!r}")
    return value


def optional(item: WireType) -> WireType:
    """``None`` or an ``item``."""
    return WireType(
        f"optional {item.name}",
        lambda value: None if value is None else item.decode(value),
        lambda value: None if value is None else item.encode(value),
    )


def tuple_of(item: WireType) -> WireType:
    """A tuple of ``item`` values."""
    name = f"tuple of {item.name}"

    def decode(value: Any) -> tuple:
        if type(value) is not tuple:
            raise ProtocolError(f"expected {name}, got {value!r}")
        return tuple(map(item.decode, value))

    return WireType(name, decode, lambda value: tuple(map(item.encode, value)))


BYTES = _leaf("bytes", bytes)
STR = _leaf("str", str)
INT = _leaf("int", int)
DICT = _leaf("dict", dict)
#: An opaque application value: anything the canonical encoding carries.
VALUE = WireType("value", _same)
TIMESTAMP = WireType("timestamp", Timestamp.from_wire, Timestamp.to_wire)
SIGNATURE = WireType("signature", Signature.from_wire, Signature.to_wire)
PREPARE_CERT = WireType(
    "prepare certificate", PrepareCertificate.from_wire, PrepareCertificate.to_wire
)
WRITE_CERT = WireType(
    "write certificate", WriteCertificate.from_wire, WriteCertificate.to_wire
)
PROOF = WireType("proof of writing", ProofOfWriting.from_wire, ProofOfWriting.to_wire)
MAC_VECTOR = WireType("MAC vector", _macvec)


class WireField(NamedTuple):
    """One declared field: dataclass attribute, wire key, type, and whether
    the key may be missing (read as ``None``)."""

    name: str
    key: str
    wire_type: WireType
    absent_ok: bool


def wire_field(
    key: str, wire_type: WireType, *, absent_ok: bool = False, **field_kwargs: Any
) -> Any:
    """Declare a message field: a dataclass field carrying its wire layout.

    ``absent_ok`` marks the few keys older peers omit; every other missing
    key is malformed.  ``field_kwargs`` (in practice ``default=None``) go to
    :func:`dataclasses.field`.
    """
    return dataclasses.field(
        metadata={"wire": (key, wire_type, absent_ok)}, **field_kwargs
    )


# ---------------------------------------------------------------------------
# Registry and the one derived codec
# ---------------------------------------------------------------------------


class Message:
    """Base class for all protocol messages."""

    KIND: ClassVar[str] = ""
    #: The declaration, collected once by :func:`register_message`.
    WIRE_FIELDS: ClassVar[tuple[WireField, ...]] = ()

    def to_wire(self) -> dict[str, Any]:
        """The wire dict (without the ``kind`` tag), per the declaration."""
        return {
            key: wire_type.encode(getattr(self, name))
            for name, key, wire_type, _ in self.WIRE_FIELDS
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "Message":
        """Parse and validate a wire dict; ProtocolError on any bad shape."""
        try:
            return cls(
                *[
                    wire_type.decode(wire.get(key) if absent_ok else wire[key])
                    for _, key, wire_type, absent_ok in cls.WIRE_FIELDS
                ]
            )
        except ProtocolError:
            raise
        except Exception as exc:
            raise ProtocolError(f"malformed {cls.KIND} message: {exc!r}") from exc


_REGISTRY: dict[str, type[Message]] = {}

#: The modules that declare message kinds, in wire-table order.
MESSAGE_MODULES = (
    "repro.core.messages",
    "repro.core.multiobject",
    "repro.baselines.messages",
    "repro.shard.messages",
)
_declared_loaded = False

M = TypeVar("M", bound=type[Message])


def register_message(cls: M) -> M:
    """Class decorator adding a message type to the wire registry.

    Collects the class's declaration into ``WIRE_FIELDS``; a dataclass field
    declared without :func:`wire_field` is refused, so the codec cannot skip one.
    """
    if not cls.KIND:
        raise ProtocolError(f"{cls.__name__} has no KIND tag")
    if cls.KIND in _REGISTRY:
        raise ProtocolError(f"duplicate message kind {cls.KIND!r}")
    fields = dataclasses.fields(cls)
    undeclared = [f.name for f in fields if "wire" not in f.metadata]
    if undeclared:
        raise ProtocolError(f"{cls.__name__} fields without wire_field(): {undeclared}")
    cls.WIRE_FIELDS = tuple(WireField(f.name, *f.metadata["wire"]) for f in fields)
    _REGISTRY[cls.KIND] = cls
    return cls


def _load_declared_messages() -> None:
    """Import every module in :data:`MESSAGE_MODULES` (once)."""
    global _declared_loaded
    if not _declared_loaded:
        for module in MESSAGE_MODULES:
            importlib.import_module(module)
        _declared_loaded = True


def registered_messages() -> dict[str, type[Message]]:
    """Every registered message class by kind tag (a copy).

    The declared modules' kinds come first, in :data:`MESSAGE_MODULES`
    order, then any kind registered elsewhere.
    """
    _load_declared_messages()
    rank = {module: index for index, module in enumerate(MESSAGE_MODULES)}
    return dict(
        sorted(
            _REGISTRY.items(),
            key=lambda item: rank.get(item[1].__module__, len(rank)),
        )
    )


def message_to_wire(message: Message) -> dict[str, Any]:
    """Serialise any registered message to its wire dict."""
    wire = message.to_wire()
    wire["kind"] = message.KIND
    return wire


@dataclass
class WireCacheStats:
    """Counters for the encode-once wire cache (perfbench reads these).

    ``hits`` count sends served from a message's cached bytes; ``misses``
    count first encodes.  ``bytes_saved`` is the encoding work avoided:
    the cached payload size times the number of hits.
    """

    hits: int = 0
    misses: int = 0
    bytes_encoded: int = 0
    bytes_saved: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of wire-byte requests served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bytes_encoded = 0
        self.bytes_saved = 0


_WIRE_STATS = WireCacheStats()
#: Attribute slot used to stash a message's canonical bytes on the instance.
_WIRE_ATTR = "_cached_wire_bytes"


def wire_cache_stats() -> WireCacheStats:
    """The process-wide encode-once cache counters."""
    return _WIRE_STATS


def reset_wire_cache_stats() -> None:
    """Zero the cache counters (benchmark isolation)."""
    _WIRE_STATS.reset()


def message_wire_bytes(message: Message) -> bytes:
    """Canonical wire bytes of ``message``, encoded at most once per instance.

    Messages are frozen dataclasses, so an instance's wire form never
    changes; the bytes are stashed on the instance the first time they are
    needed and every later send — each leg of a 3f+1 fan-out, every
    retransmission — reuses them.  Transports and the simulated network all
    serialise through here, so a message crosses the encoder exactly once no
    matter how many links carry it.
    """
    cached = message.__dict__.get(_WIRE_ATTR)
    if cached is not None:
        _WIRE_STATS.hits += 1
        _WIRE_STATS.bytes_saved += len(cached)
        return cached
    encoded = canonical_encode(message_to_wire(message))
    _WIRE_STATS.misses += 1
    _WIRE_STATS.bytes_encoded += len(encoded)
    object.__setattr__(message, _WIRE_ATTR, encoded)
    return encoded


def message_from_wire(wire: Any) -> Message:
    """Parse a wire dict back into a message instance.

    Raises:
        ProtocolError: if the kind is unknown or the body is malformed.
    """
    if not isinstance(wire, dict) or "kind" not in wire:
        raise ProtocolError(f"malformed message wire: {wire!r}")
    kind = wire["kind"]
    cls = _REGISTRY.get(kind) if isinstance(kind, str) else None
    if cls is None and isinstance(kind, str):
        _load_declared_messages()
        cls = _REGISTRY.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown message kind {kind!r}")
    return cls.from_wire(wire)


# ---------------------------------------------------------------------------
# Base protocol (Figures 1 and 2)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class ReadTsRequest(Message):
    """Phase-1 request: ``<READ-TS, nonce>``.

    ``write_cert`` implements §3.3.1's optional speed-up ("we could speed up
    removing entries from the list if we propagated write certificates in
    more messages, e.g., in read requests"): a self-certifying write
    certificate the replica may apply to prune its prepare list.
    """

    KIND: ClassVar[str] = "READ-TS"
    nonce: bytes = wire_field("nonce", BYTES)
    write_cert: Optional[WriteCertificate] = wire_field(
        "wcert", optional(WRITE_CERT), absent_ok=True, default=None
    )


@register_message
@dataclass(frozen=True)
class ReadTsReply(Message):
    """Phase-1 reply: ``<READ-TS-REPLY, Pcert, nonce>_sigma_r``.

    ``ts_vouch`` is only present in the §7 strong variant: a signature over
    ``<WRITE-REPLY, cert.ts>`` vouching that this replica has stored a write
    with that timestamp, from which clients assemble the justify certificate.

    ``pvouch`` is only present in the fast-path variant when the replica's
    stored certificate carries proof evidence: a signature over
    ``<FAST-VOUCH, cert.ts, cert.h>``; ``f+1`` of them let a client upgrade
    the non-transferable proof certificate to a transferable vouch one.
    """

    KIND: ClassVar[str] = "READ-TS-REPLY"
    cert: PrepareCertificate = wire_field("cert", PREPARE_CERT)
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)
    ts_vouch: Optional[Signature] = wire_field(
        "vouch", optional(SIGNATURE), default=None
    )
    pvouch: Optional[Signature] = wire_field(
        "pvouch", optional(SIGNATURE), absent_ok=True, default=None
    )


@register_message
@dataclass(frozen=True)
class PrepareRequest(Message):
    """Phase-2 request: ``<PREPARE, Pmax, t, h(val), Wcert>_sigma_c``.

    ``justify_cert`` is None in the base protocol; the strong variant (§7)
    carries a write certificate with ``ts = succ(justify_cert.ts, c)``.
    """

    KIND: ClassVar[str] = "PREPARE"
    prev_cert: PrepareCertificate = wire_field("prev", PREPARE_CERT)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    value_hash: bytes = wire_field("hash", BYTES)
    write_cert: Optional[WriteCertificate] = wire_field("wcert", optional(WRITE_CERT))
    justify_cert: Optional[WriteCertificate] = wire_field("jcert", optional(WRITE_CERT))
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class PrepareReply(Message):
    """Phase-2 reply: ``<PREPARE-REPLY, t, h>_sigma_r``."""

    KIND: ClassVar[str] = "PREPARE-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    value_hash: bytes = wire_field("hash", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class WriteRequest(Message):
    """Phase-3 request: ``<WRITE, val, Pnew>_sigma_c``."""

    KIND: ClassVar[str] = "WRITE"
    value: Any = wire_field("value", VALUE)
    prepare_cert: PrepareCertificate = wire_field("cert", PREPARE_CERT)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class WriteReply(Message):
    """Phase-3 reply: ``<WRITE-REPLY, t>_sigma_r``."""

    KIND: ClassVar[str] = "WRITE-REPLY"
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class ReadRequest(Message):
    """Read phase-1 request: ``<READ, nonce>``.

    ``write_cert``: optional §3.3.1 piggyback, as on :class:`ReadTsRequest`.
    """

    KIND: ClassVar[str] = "READ"
    nonce: bytes = wire_field("nonce", BYTES)
    write_cert: Optional[WriteCertificate] = wire_field(
        "wcert", optional(WRITE_CERT), absent_ok=True, default=None
    )


@register_message
@dataclass(frozen=True)
class ReadReply(Message):
    """Read reply: value, prepare certificate, and nonce, signed by replica."""

    KIND: ClassVar[str] = "READ-REPLY"
    value: Any = wire_field("value", VALUE)
    cert: PrepareCertificate = wire_field("cert", PREPARE_CERT)
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)
    ts_vouch: Optional[Signature] = wire_field(
        "vouch", optional(SIGNATURE), default=None
    )
    pvouch: Optional[Signature] = wire_field(
        "pvouch", optional(SIGNATURE), absent_ok=True, default=None
    )


# ---------------------------------------------------------------------------
# Optimized protocol (§6.2)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class ReadTsPrepRequest(Message):
    """Merged phase-1/2 request carrying the proposed value's hash."""

    KIND: ClassVar[str] = "READ-TS-PREP"
    value_hash: bytes = wire_field("hash", BYTES)
    write_cert: Optional[WriteCertificate] = wire_field("wcert", optional(WRITE_CERT))
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)


@register_message
@dataclass(frozen=True)
class ReadTsPrepReply(Message):
    """Merged phase-1/2 reply.

    Always carries the replica's stored prepare certificate (the normal
    phase-1 payload).  When the replica performed the prepare on the client's
    behalf, ``prepared_ts`` holds the predicted timestamp and ``prep_sig`` the
    ``<PREPARE-REPLY, prepared_ts, h>`` signature that contributes to the
    optimistic prepare certificate.
    """

    KIND: ClassVar[str] = "READ-TS-PREP-REPLY"
    cert: PrepareCertificate = wire_field("cert", PREPARE_CERT)
    prepared_ts: Optional[Timestamp] = wire_field("pts", optional(TIMESTAMP))
    prep_sig: Optional[Signature] = wire_field("psig", optional(SIGNATURE))
    nonce: bytes = wire_field("nonce", BYTES)
    signature: Signature = wire_field("sig", SIGNATURE)


# ---------------------------------------------------------------------------
# Fast path (signature-free proofs of writing)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class FastPrepRequest(Message):
    """Fast phase-1 request: value hash plus a fresh commitment, MAC'd.

    No signature anywhere: ``macs`` is the client's MAC vector (one entry per
    replica) over :func:`~repro.core.statements.fast_prep_request_statement`.
    The sender identity is the explicit ``client`` field — MAC keys are
    looked up by it, so a colluder replaying a hoarded request authenticates
    as the original client, exactly like a replayed signed request.
    """

    KIND: ClassVar[str] = "FAST-PREP"
    client: str = wire_field("client", STR)
    value_hash: bytes = wire_field("hash", BYTES)
    commitment: bytes = wire_field("commit", BYTES)
    nonce: bytes = wire_field("nonce", BYTES)
    write_cert: Optional[WriteCertificate] = wire_field("wcert", optional(WRITE_CERT))
    macs: tuple[tuple[str, bytes], ...] = wire_field("macs", MAC_VECTOR)


@register_message
@dataclass(frozen=True)
class FastPrepReply(Message):
    """Fast phase-1 reply: the predicted timestamp plus this replica's ack row.

    ``row`` carries one MAC per *receiver replica* over
    :func:`~repro.core.statements.fast_prep_ack_statement` — the material
    the client later assembles into a proof of writing.  ``prepared_ts`` is
    ``None`` when the replica refuses to fast-prepare (prepare-list
    conflict); the refusal is still MAC-authenticated (``mac`` covers the
    reply envelope) so it counts as a vote toward fallback.
    """

    KIND: ClassVar[str] = "FAST-PREP-REPLY"
    replica: str = wire_field("replica", STR)
    prepared_ts: Optional[Timestamp] = wire_field("pts", optional(TIMESTAMP))
    row: tuple[tuple[str, bytes], ...] = wire_field("row", MAC_VECTOR)
    nonce: bytes = wire_field("nonce", BYTES)
    mac: bytes = wire_field("mac", BYTES)


@register_message
@dataclass(frozen=True)
class FastWriteRequest(Message):
    """Fast phase-2 request: the value plus the revealed proof of writing."""

    KIND: ClassVar[str] = "FAST-WRITE"
    client: str = wire_field("client", STR)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    value: Any = wire_field("value", VALUE)
    proof: ProofOfWriting = wire_field("proof", PROOF)
    nonce: bytes = wire_field("nonce", BYTES)
    macs: tuple[tuple[str, bytes], ...] = wire_field("macs", MAC_VECTOR)


@register_message
@dataclass(frozen=True)
class FastWriteReply(Message):
    """Fast phase-2 reply: the install ack row (the fast WRITE-REPLY)."""

    KIND: ClassVar[str] = "FAST-WRITE-REPLY"
    replica: str = wire_field("replica", STR)
    ts: Timestamp = wire_field("ts", TIMESTAMP)
    row: tuple[tuple[str, bytes], ...] = wire_field("row", MAC_VECTOR)
    nonce: bytes = wire_field("nonce", BYTES)
    mac: bytes = wire_field("mac", BYTES)


# ---------------------------------------------------------------------------
# Quarantine-and-rebuild repair (self-stabilizing storage)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class RepairRequest(Message):
    """A quarantined replica's pull for a full-state snapshot.

    Sent to every peer when a replica detects corruption (a suspect store
    on recovery, or a failed self-audit).  The ``nonce`` binds replies to
    this repair round so stale retransmissions cannot satisfy a later one.
    """

    KIND: ClassVar[str] = "REPAIR-REQ"
    replica: str = wire_field("replica", STR)
    nonce: bytes = wire_field("nonce", BYTES)


@register_message
@dataclass(frozen=True)
class RepairReply(Message):
    """One peer's full-state snapshot plus its fingerprint.

    The receiver trusts neither field: it replays the snapshot through a
    scratch state machine, recomputes the fingerprint, and validates the
    embedded prepare certificates before adopting anything — up to *f*
    repliers may be Byzantine.
    """

    KIND: ClassVar[str] = "REPAIR-REPLY"
    replica: str = wire_field("replica", STR)
    nonce: bytes = wire_field("nonce", BYTES)
    snapshot: dict[str, Any] = wire_field("snapshot", DICT)
    fingerprint: bytes = wire_field("fingerprint", BYTES)
