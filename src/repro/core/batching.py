"""Cross-object batching: one wire frame per (round, destination).

A multi-object client with k operations in flight fans each request out to
3f+1 replicas, producing k frames per replica per round; the replicas answer
with k more.  All of those frames share a destination, so the
:class:`BatchCoalescer` merges them into a single :class:`BatchEnvelope` —
one frame per destination per send round — and the receiving adapter unpacks
it and processes the inner messages in order.

The envelope carries the *encoded bytes* of each inner message (the
canonical encoding is self-delimiting, so bytes compose), which threads the
encode-once wire cache straight through batching: building a batch reuses
each message's cached bytes and never re-serialises a payload.

Batching is pure transport-level grouping.  Inner messages keep their own
signatures — for multi-object traffic those are scoped per object id
(:class:`~repro.core.multiobject.ScopedSignatureScheme`) — so the §3.2
replay-prevention argument is untouched: a batch conveys exactly the same
authenticated statements as the unbatched frames it replaces, and a
Byzantine node gains nothing it could not do by sending the same messages
separately.  Envelopes never nest: a ``BATCH`` payload inside a batch is
discarded at unpack time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

from repro.core.messages import (
    BYTES,
    Message,
    PrepareReply,
    PrepareRequest,
    ReadReply,
    ReadRequest,
    ReadTsPrepRequest,
    ReadTsReply,
    ReadTsRequest,
    WriteReply,
    WriteRequest,
    message_from_wire,
    message_wire_bytes,
    register_message,
    tuple_of,
    wire_field,
)
from repro.core.phases import Send
from repro.core.statements import (
    prepare_reply_statement,
    prepare_request_statement,
    read_reply_statement,
    read_ts_prep_request_statement,
    read_ts_reply_statement,
    write_reply_statement,
    write_request_statement,
)
from repro.core.verification import Verifier
from repro.crypto.signatures import Signature
from repro.encoding import canonical_decode
from repro.errors import EncodingError, ProtocolError

__all__ = [
    "BatchEnvelope",
    "BatchStats",
    "BatchCoalescer",
    "expand_message",
    "batch_signature_checks",
    "prevalidate_batch",
]


@register_message
@dataclass(frozen=True)
class BatchEnvelope(Message):
    """A frame carrying several same-destination messages' encoded bytes."""

    KIND: ClassVar[str] = "BATCH"
    payloads: tuple[bytes, ...] = wire_field("msgs", tuple_of(BYTES, nonempty=True))

    def __len__(self) -> int:
        return len(self.payloads)


@dataclass
class BatchStats:
    """Coalescing counters and the batch-size distribution (E15b)."""

    sends_in: int = 0
    frames_out: int = 0
    batches: int = 0
    messages_batched: int = 0
    malformed_payloads: int = 0
    batch_sizes: Counter = field(default_factory=Counter)

    @property
    def frames_saved(self) -> int:
        """Wire frames avoided by coalescing."""
        return self.sends_in - self.frames_out

    @property
    def mean_batch_size(self) -> float:
        """Average messages per emitted batch (0 when none formed)."""
        return self.messages_batched / self.batches if self.batches else 0.0

    def reset(self) -> None:
        self.sends_in = 0
        self.frames_out = 0
        self.batches = 0
        self.messages_batched = 0
        self.malformed_payloads = 0
        self.batch_sizes.clear()


class BatchCoalescer:
    """Merges same-destination sends from one round into batch envelopes.

    ``coalesce`` groups a send batch by destination, preserving the order of
    first appearance and the relative order of messages per destination.
    Destinations with a single message pass through untouched — when no two
    sends share a destination the output is *identical* to the input, which
    is what makes batching a provable no-op for single-object workloads (the
    differential tests pin this down byte for byte).
    """

    def __init__(self, stats: Optional[BatchStats] = None) -> None:
        self.stats = stats if stats is not None else BatchStats()

    def coalesce(self, sends: list[Send]) -> list[Send]:
        """One send round in, one frame per distinct destination out."""
        self.stats.sends_in += len(sends)
        if len(sends) < 2:
            self.stats.frames_out += len(sends)
            return sends
        by_dest: dict[str, list[Send]] = {}
        for send in sends:
            by_dest.setdefault(send.dest, []).append(send)
        out: list[Send] = []
        for dest, group in by_dest.items():
            # Never nest envelopes: a group containing a batch (or a lone
            # message) is forwarded as-is.
            if len(group) == 1 or any(
                isinstance(s.message, BatchEnvelope) for s in group
            ):
                out.extend(group)
                self.stats.frames_out += len(group)
                continue
            payloads = tuple(message_wire_bytes(s.message) for s in group)
            out.append(Send(dest=dest, message=BatchEnvelope(payloads=payloads)))
            self.stats.frames_out += 1
            self.stats.batches += 1
            self.stats.messages_batched += len(group)
            self.stats.batch_sizes[len(group)] += 1
        return out


# -- batch signature prevalidation ------------------------------------------
#
# Each extractor answers: which (signature, statement) checks and which
# certificate validations will the receiving state machine perform while
# handling this message?  The statements are built *exactly* as the handlers
# build them, so a batch pass through ``Verifier.verify_batch`` leaves every
# one of the handler's subsequent checks a memo hit.  Fast-path messages are
# MAC-authenticated and carry no signatures, so they contribute nothing.


def _cert_wire(cert: Any) -> Any:
    return None if cert is None else cert.to_wire()


def _checks_prepare(message: PrepareRequest, checks: list, certs: list) -> None:
    checks.append(
        (
            message.signature,
            prepare_request_statement(
                message.prev_cert.to_wire(),
                message.ts,
                message.value_hash,
                _cert_wire(message.write_cert),
                _cert_wire(message.justify_cert),
            ),
        )
    )
    certs.append(message.prev_cert)
    if message.write_cert is not None:
        certs.append(message.write_cert)
    if message.justify_cert is not None:
        certs.append(message.justify_cert)


def _checks_write(message: WriteRequest, checks: list, certs: list) -> None:
    checks.append(
        (
            message.signature,
            write_request_statement(message.value, message.prepare_cert.to_wire()),
        )
    )
    certs.append(message.prepare_cert)


def _checks_read_ts_prep(
    message: ReadTsPrepRequest, checks: list, certs: list
) -> None:
    checks.append(
        (
            message.signature,
            read_ts_prep_request_statement(
                message.value_hash, _cert_wire(message.write_cert), message.nonce
            ),
        )
    )
    if message.write_cert is not None:
        certs.append(message.write_cert)


def _checks_read_request(
    message: "ReadTsRequest | ReadRequest", checks: list, certs: list
) -> None:
    if message.write_cert is not None:
        certs.append(message.write_cert)


def _checks_prepare_reply(
    message: PrepareReply, checks: list, certs: list
) -> None:
    checks.append(
        (message.signature, prepare_reply_statement(message.ts, message.value_hash))
    )


def _checks_write_reply(message: WriteReply, checks: list, certs: list) -> None:
    checks.append((message.signature, write_reply_statement(message.ts)))


def _checks_read_ts_reply(
    message: ReadTsReply, checks: list, certs: list
) -> None:
    checks.append(
        (
            message.signature,
            read_ts_reply_statement(message.cert.to_wire(), message.nonce),
        )
    )
    if message.ts_vouch is not None:
        checks.append((message.ts_vouch, write_reply_statement(message.cert.ts)))
    certs.append(message.cert)


def _checks_read_reply(message: ReadReply, checks: list, certs: list) -> None:
    checks.append(
        (
            message.signature,
            read_reply_statement(
                message.value, message.cert.to_wire(), message.nonce
            ),
        )
    )
    if message.ts_vouch is not None:
        checks.append((message.ts_vouch, write_reply_statement(message.cert.ts)))
    certs.append(message.cert)


_CHECK_EXTRACTORS: dict[type, Any] = {
    PrepareRequest: _checks_prepare,
    WriteRequest: _checks_write,
    ReadTsPrepRequest: _checks_read_ts_prep,
    ReadTsRequest: _checks_read_request,
    ReadRequest: _checks_read_request,
    PrepareReply: _checks_prepare_reply,
    WriteReply: _checks_write_reply,
    ReadTsReply: _checks_read_ts_reply,
    ReadReply: _checks_read_reply,
}


def batch_signature_checks(
    messages: "list[Message]",
) -> tuple[list[tuple[Signature, tuple]], list[Any]]:
    """The signature checks and certificate validations a batch will need.

    Messages outside the signed single-object vocabulary (fast-path MACs,
    object envelopes, baselines) contribute nothing — prevalidation is an
    optimization, never a gate, so an uncovered kind simply verifies at its
    handler as before.
    """
    checks: list[tuple[Signature, tuple]] = []
    certs: list[Any] = []
    for message in messages:
        extractor = _CHECK_EXTRACTORS.get(type(message))
        if extractor is not None:
            extractor(message, checks, certs)
    return checks, certs


def prevalidate_batch(verifier: Verifier, messages: "list[Message]") -> int:
    """Warm ``verifier``'s memo for a batch of messages in one amortized pass.

    Called by the batch-hosting adapters (simulator nodes, the TCP server's
    chunk loop, the client-side mux) just before the messages are handled
    individually.  Skipped when the memo is disabled — without it the
    handlers would re-verify everything and the pass would double the work —
    or when the batch holds fewer than two checks, where there is nothing to
    amortize.  Returns the number of signature checks submitted.
    """
    if not verifier.enabled:
        return 0
    checks, certs = batch_signature_checks(messages)
    if len(checks) + len(certs) < 2:
        return 0
    verifier.verify_batch(checks, certificates=certs)
    return len(checks)


def expand_message(
    message: Message, stats: Optional[BatchStats] = None
) -> list[Message]:
    """The inner messages of a batch, or ``[message]`` itself.

    Malformed payloads and nested envelopes are skipped (counted on
    ``stats`` when given) — per the paper's discipline, invalid input is
    silently discarded and retransmission recovers.
    """
    if not isinstance(message, BatchEnvelope):
        return [message]
    inner: list[Message] = []
    for payload in message.payloads:
        try:
            decoded = message_from_wire(canonical_decode(payload))
        except (EncodingError, ProtocolError):
            if stats is not None:
                stats.malformed_payloads += 1
            continue
        if isinstance(decoded, BatchEnvelope):
            if stats is not None:
                stats.malformed_payloads += 1
            continue
        inner.append(decoded)
    return inner
