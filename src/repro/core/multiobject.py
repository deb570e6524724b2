"""Multi-object deployments (§3.2).

The paper presents a single object for clarity but notes that "our system
can deal with multiple objects; each object would have a distinct identifier
and each read and write would identify the object of interest".  This module
supplies that generalisation without perturbing the verified single-object
state machines:

* every request/reply is wrapped in an :class:`ObjectMessage` envelope that
  carries the object identifier;
* each object gets its own replica state machine and client operation
  driver, created lazily;
* **signatures are scoped per object**: a :class:`ScopedSignatureScheme`
  prefixes every signed statement with the object id, so a certificate or
  signed request for object A can never be replayed against object B;
* envelopes may carry a configuration **epoch** tag (``repro.shard``):
  a replica pinned to an epoch rejects envelopes tagged with any other
  epoch (outside an explicit handoff allowance) by answering with an
  :class:`EpochStaleReply`, which tells the client to refresh its shard
  directory before retrying.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Optional

from repro.core.client import BftBcClient
from repro.core.config import SystemConfig
from repro.core.messages import (
    DICT,
    INT,
    STR,
    Message,
    message_from_wire,
    message_to_wire,
    optional,
    register_message,
    wire_field,
)
from repro.core.operations import Send
from repro.core.replica import BftBcReplica
from repro.crypto.signatures import Signature, SignatureScheme
from repro.encoding import canonical_encode
from repro.errors import ProtocolError

__all__ = [
    "ObjectMessage",
    "EpochStaleReply",
    "ScopedSignatureScheme",
    "MultiObjectReplica",
    "MultiObjectClient",
]


@register_message
@dataclass(frozen=True)
class ObjectMessage(Message):
    """Envelope: ``payload`` is the wire form of a single-object message.

    ``epoch`` is ``None`` for single-group deployments; sharded clients tag
    every envelope with the configuration epoch they believe governs the
    object's group so replicas can detect stale routing.
    """

    KIND: ClassVar[str] = "OBJ"
    obj: str = wire_field("obj", STR)
    payload: dict[str, Any] = wire_field("payload", DICT)
    epoch: Optional[int] = wire_field(
        "epoch", optional(INT), absent_ok=True, default=None
    )


@register_message
@dataclass(frozen=True)
class EpochStaleReply(Message):
    """Replica's answer to an envelope tagged with the wrong epoch.

    Carries the epoch the replica currently serves.  The reply is unsigned
    — it only *prompts* a directory refresh, and the refreshed directory
    entries themselves are quorum-signed, so forging it can waste a fetch
    but never misroute an operation.
    """

    KIND: ClassVar[str] = "EPOCH-STALE"
    obj: str = wire_field("obj", STR)
    epoch: int = wire_field("epoch", INT)


class ScopedSignatureScheme(SignatureScheme):
    """Binds every signature to one object's namespace.

    Shares the base scheme's registry and stats; only the signed bytes are
    namespaced.  Without this, a Byzantine client could take a prepare
    certificate earned on a throwaway object and replay it against a
    valuable one.
    """

    def __init__(self, base: SignatureScheme, scope: str) -> None:
        self._base = base
        self._prefix = canonical_encode(("object-scope", scope))
        self.registry = base.registry
        self.stats = base.stats
        self.scope = scope

    def sign(self, node_id: str, message: bytes) -> Signature:
        return self._base.sign(node_id, self._prefix + message)

    def verify(self, signature: Signature, message: bytes) -> bool:
        return self._base.verify(signature, self._prefix + message)

    def _sign(self, node_id: str, message: bytes) -> bytes:  # pragma: no cover
        raise NotImplementedError("scoped schemes delegate whole-signature calls")

    def _verify(self, signature: Signature, message: bytes) -> bool:  # pragma: no cover
        raise NotImplementedError("scoped schemes delegate whole-signature calls")


def _scoped_config(config: SystemConfig, obj: str) -> SystemConfig:
    return replace(config, scheme=ScopedSignatureScheme(config.scheme, obj))


def _decode_payload(message: ObjectMessage) -> Optional[Message]:
    """The envelope's inner message, or None when the payload is malformed."""
    try:
        return message_from_wire(message.payload)
    except ProtocolError:
        return None


class MultiObjectReplica:
    """A replica hosting one protocol state machine per object id."""

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        replica_cls: type[BftBcReplica] = BftBcReplica,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self._replica_cls = replica_cls
        self._objects: dict[str, BftBcReplica] = {}
        self.envelope_discards = 0
        #: When set, envelopes tagged with a different epoch are refused.
        self.epoch: Optional[int] = None
        self._also_accept: frozenset[int] = frozenset()
        self.stale_epoch_discards = 0

    def object_state(self, obj: str) -> BftBcReplica:
        """The per-object state machine (created on first use)."""
        state = self._objects.get(obj)
        if state is None:
            state = self._replica_cls(
                self.node_id, _scoped_config(self.config, obj)
            )
            self._objects[obj] = state
        return state

    @property
    def objects(self) -> frozenset[str]:
        return frozenset(self._objects)

    # -- epoch pinning (repro.shard) ---------------------------------------

    def set_epoch(self, epoch: int, also_accept: tuple[int, ...] = ()) -> None:
        """Pin this replica to a configuration epoch.

        Envelopes tagged with any epoch outside ``{epoch} | also_accept``
        are answered with :class:`EpochStaleReply` instead of being
        processed.  ``also_accept`` is the bounded handoff allowance: during
        a reconfiguration the previous epoch stays serviceable until the
        window closes (a later ``set_epoch(epoch)`` call with no allowance).
        Untagged envelopes are always served — single-group deployments
        never tag.
        """
        self.epoch = epoch
        self._also_accept = frozenset(also_accept)

    def update_quorums(self, quorums: Any) -> None:
        """Swap the quorum system governing every object's certificates.

        Used at epoch installation: membership changed, so certificate
        validation (and its memo) must follow.  Mutates the shared config
        and each existing per-object config in place — per-object configs
        are copies made by :func:`_scoped_config`, so the shared object
        alone is not enough.
        """
        self.config.quorums = quorums
        self.config.verifier.rebind_quorums(quorums)
        for state in self._objects.values():
            state.config.quorums = quorums
            state.config.verifier.rebind_quorums(quorums)

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        """Process one object envelope; the reply (if any) goes to ``sender``."""
        if not isinstance(message, ObjectMessage):
            self.envelope_discards += 1
            return None
        if (
            self.epoch is not None
            and message.epoch is not None
            and message.epoch != self.epoch
            and message.epoch not in self._also_accept
        ):
            self.stale_epoch_discards += 1
            return EpochStaleReply(obj=message.obj, epoch=self.epoch)
        inner = _decode_payload(message)
        if inner is None:
            self.envelope_discards += 1
            return None
        reply = self.object_state(message.obj).handle(sender, inner)
        if reply is None:
            return None
        return ObjectMessage(
            obj=message.obj, payload=message_to_wire(reply), epoch=message.epoch
        )


class MultiObjectClient:
    """A client holding one protocol driver per object.

    Operations on *different* objects may be in flight concurrently; each
    object's operations remain sequential (the §4.1 model is per-client
    per-object sequential histories).
    """

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        client_cls: type[BftBcClient] = BftBcClient,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self._client_cls = client_cls
        self._objects: dict[str, BftBcClient] = {}
        #: Epoch tag stamped on every outgoing envelope (``None`` = untagged).
        self.epoch: Optional[int] = None
        #: Callback ``(sender, reply) -> list[Send]`` invoked on an
        #: :class:`EpochStaleReply`; the shard router uses it to kick off a
        #: directory refresh.  Unset, stale replies are counted and dropped.
        self.on_epoch_stale: Optional[
            Callable[[str, EpochStaleReply], list[Send]]
        ] = None
        self.stale_epoch_replies = 0
        config.registry.register(node_id)

    def object_client(self, obj: str) -> BftBcClient:
        client = self._objects.get(obj)
        if client is None:
            client = self._client_cls(self.node_id, _scoped_config(self.config, obj))
            self._objects[obj] = client
        return client

    # -- operations -----------------------------------------------------------

    def begin_write(self, obj: str, value: Any) -> list[Send]:
        return self._wrap(obj, self.object_client(obj).begin_write(value))

    def begin_read(self, obj: str) -> list[Send]:
        return self._wrap(obj, self.object_client(obj).begin_read())

    def deliver(self, sender: str, message: Message) -> list[Send]:
        if isinstance(message, EpochStaleReply):
            self.stale_epoch_replies += 1
            if self.on_epoch_stale is not None:
                return self.on_epoch_stale(sender, message)
            return []
        if not isinstance(message, ObjectMessage):
            return []
        client = self._objects.get(message.obj)
        if client is None:
            return []
        inner = _decode_payload(message)
        if inner is None:
            return []
        return self._wrap(message.obj, client.deliver(sender, inner))

    def retransmit(self) -> list[Send]:
        sends: list[Send] = []
        for obj, client in self._objects.items():
            sends.extend(self._wrap(obj, client.retransmit()))
        return sends

    def update_quorums(self, quorums: Any) -> None:
        """Swap the quorum system governing every object's certificates.

        The client-side half of epoch migration: in-flight operations keep
        their protocol state (prepared timestamps stay prepared at the
        continuing replicas — restarting them under a fresh client would
        wedge against the replicas' one-prepared-write-per-client rule) and
        simply resume against the new membership.  Per-object configs are
        copies, so each one is rebound alongside the shared config.
        """
        self.config.quorums = quorums
        self.config.verifier.rebind_quorums(quorums)
        for state in self._objects.values():
            state.config.quorums = quorums
            state.config.verifier.rebind_quorums(quorums)

    def _wrap(self, obj: str, sends: list[Send]) -> list[Send]:
        """Wrap inner sends in :class:`ObjectMessage` envelopes.

        The envelope for a given inner message instance is built once and
        cached on the instance, so a request fanned out to 3f+1 replicas is
        wrapped once, and every retransmission of it (the phase engine
        resends the *same* frozen request object) reuses the envelope — and
        with it the envelope's cached wire bytes.  No per-retransmit
        re-encoding of the payload remains.
        """
        wrapped: list[Send] = []
        for send in sends:
            envelope = send.message.__dict__.get("_cached_envelope")
            if envelope is None or envelope.obj != obj or envelope.epoch != self.epoch:
                envelope = ObjectMessage(
                    obj=obj, payload=message_to_wire(send.message), epoch=self.epoch
                )
                object.__setattr__(send.message, "_cached_envelope", envelope)
            wrapped.append(Send(dest=send.dest, message=envelope))
        return wrapped

    # -- inspection --------------------------------------------------------------

    def busy(self, obj: str) -> bool:
        client = self._objects.get(obj)
        return client is not None and client.busy

    @property
    def any_busy(self) -> bool:
        return any(c.busy for c in self._objects.values())

    def result(self, obj: str) -> Any:
        client = self._objects.get(obj)
        return None if client is None else client.last_result

    @property
    def objects(self) -> frozenset[str]:
        return frozenset(self._objects)
