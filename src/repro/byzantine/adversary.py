"""The sans-I/O adversary every Byzantine client is built on.

An adversary is what a correct client already is: a state machine built from
``(node_id, config, variant)`` that its host drives through ``start()``,
``deliver(src, message)`` and ``retransmit()``, each returning ``[Send]``,
until ``done``.  It holds its own (legitimately registered) key and may
deviate in any way that does not require forging a signature, but it never
sees a cluster, a network or a clock: ``Cluster.add_adversary`` hosts it in
the simulator, ``net.mux.drive`` on a socket, ``ScheduleExplorer`` in its
``clients`` dict.  Waiting for replies that will not come is a budget counted
in retransmit ticks.  A step is either an inner ``Operation`` whose outgoing
sends are filtered (how a final write is withheld) or a set of concurrent
quorum rounds, so one vote per replica, sender checks and retransmission to
the silent set are the engine's for every attack alike.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro.core.config import SystemConfig, Variant
from repro.core.messages import FastWriteRequest, Message, WriteRequest
from repro.core.operations import Operation
from repro.core.phases import QuorumRound, Send
from repro.crypto.nonces import NonceSource
from repro.crypto.signatures import Signature

__all__ = ["ATTEMPT_TICKS", "Adversary", "ConfinedRound"]

#: Retransmit ticks an attack spends on a step correct replicas will never
#: answer before concluding the attempt failed (2.0 s at the simulator's
#: default 0.05 s interval).
ATTEMPT_TICKS = 40

Continuation = Callable[[], list[Send]]


class ConfinedRound(QuorumRound):
    """A round that never widens: only its ``targets`` are ever (re)sent to."""

    def missing(self) -> tuple[str, ...]:
        return tuple(r for r in self.targets if r not in self.replies)


class Adversary:
    """Base machine: drives one inner operation or a set of quorum rounds."""

    def __init__(
        self, node_id: str, config: SystemConfig, variant: Union[str, Variant] = "base"
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.variant = Variant.coerce(variant)
        credential = config.registry.register(node_id)
        self.nonces = NonceSource(node_id, secret=credential.secret)
        self.done = False
        self._after_op: Optional[Callable[[Operation, Any], list[Send]]] = None
        self._withhold = False
        self._at_quorum: Continuation = self._finish
        self._begin_step(None, None)

    @property
    def identities(self) -> frozenset[str]:
        """Every client id this adversary signs as (the bad clients)."""
        return frozenset({self.node_id})

    # -- the machine contract ------------------------------------------------

    def start(self) -> list[Send]:
        raise NotImplementedError

    def deliver(self, src: str, message: Message) -> list[Send]:
        if self.done:
            return []
        if self._op is not None:
            return self._pump(self._op.on_message(src, message))
        # Every open round is offered the reply (a list, not a generator:
        # ``any`` must not stop at the first round that takes it).
        if any([round_.add(src, message) for round_ in self._rounds]) and all(
            round_.have_quorum for round_ in self._rounds
        ):
            return self._at_quorum()
        return []

    def retransmit(self) -> list[Send]:
        if self.done:
            return []
        if self._ticks_left is not None:
            self._ticks_left -= 1
            if self._ticks_left <= 0:
                expired = self._expired
                self._begin_step(None, None)
                return expired()
        if self._op is not None:
            return self._pump(self._op.on_retransmit())
        return [send for round_ in self._rounds for send in round_.retransmit()]

    # -- steps, for subclasses -------------------------------------------------

    def _begin_step(
        self, budget: Optional[int], expired: Optional[Continuation]
    ) -> None:
        self._op: Optional[Operation] = None
        self._rounds: Sequence[QuorumRound] = ()
        self._ticks_left = budget
        self._expired = expired or self._finish

    def _run_op(
        self,
        op: Operation,
        then: Callable[[Operation, Any], list[Send]],
        *,
        withhold: bool = False,
        budget: Optional[int] = None,
        expired: Optional[Continuation] = None,
    ) -> list[Send]:
        """Drive ``op``; ``then(op, held)`` runs when it completes.  With
        ``withhold`` it is cut short the moment it emits its own final WRITE /
        FAST-WRITE: nothing of that batch is sent and the request is handed
        to ``then`` as ``held`` (otherwise ``None``)."""
        self._begin_step(budget, expired)
        self._op, self._after_op, self._withhold = op, then, withhold
        return self._pump(op.start())

    def _pump(self, sends: list[Send]) -> list[Send]:
        op = self._op
        assert op is not None and self._after_op is not None
        # Match the op's own value: a §7 write-back of somebody else's value
        # is part of justifying the prepare, not the final write.
        held = next(
            (
                send.message
                for send in sends
                if self._withhold
                and isinstance(send.message, (WriteRequest, FastWriteRequest))
                and send.message.value == op.value
            ),
            None,
        )
        if held is None and not op.done:
            return sends
        self._op = None
        return self._after_op(op, held)

    def _run_rounds(
        self,
        rounds: Sequence[QuorumRound],
        then: Optional[Continuation] = None,
        *,
        budget: Optional[int] = ATTEMPT_TICKS,
        expired: Optional[Continuation] = None,
    ) -> list[Send]:
        """Open ``rounds`` together; once every one of them has its quorum
        ``then()`` runs (by default the attack is finished)."""
        self._begin_step(budget, expired)
        self._rounds, self._at_quorum = rounds, then or self._finish
        return [send for round_ in rounds for send in round_.begin()]

    def _finish(self) -> list[Send]:
        self.done = True
        self._begin_step(None, None)
        return []

    # -- rounds every attack shares ---------------------------------------------

    def _signature_round(
        self,
        request: Any,
        reply_cls: type,
        statement: bytes,
        targets: Optional[tuple[str, ...]] = None,
    ) -> QuorumRound:
        """``request`` asks each replica to sign ``statement`` for its
        ``(ts, value_hash)``; the votes are those signatures."""

        def valid(src: str, message: Message) -> Optional[Signature]:
            if not isinstance(message, reply_cls) or message.ts != request.ts:
                return None
            if message.value_hash != request.value_hash:
                return None
            signed = self._signed_by(src, message.signature, statement)
            return message.signature if signed else None

        return QuorumRound(self.config, request, valid, targets=targets)

    def _ack_round(
        self,
        request: Message,
        ts: Any,
        reply_cls: Any,
        only: Optional[tuple[str, ...]] = None,
    ) -> QuorumRound:
        """``request`` is a write; a vote is a ``reply_cls`` for ``ts``.  With
        ``only``, the round is confined to those replicas and needs them all."""

        def valid(src: str, message: Message) -> Optional[Message]:
            acked = isinstance(message, reply_cls) and message.ts == ts
            return message if acked and (only is None or src in only) else None

        if only is None:
            return QuorumRound(self.config, request, valid)
        return ConfinedRound(
            self.config, request, valid, targets=only, threshold=len(only)
        )

    # -- signing (legitimate, with keys the adversary owns) ----------------------

    def sign(self, statement: bytes, signer: Optional[str] = None) -> Signature:
        return self.config.scheme.sign(signer or self.node_id, statement)

    def _signed_by(self, src: str, signature: Signature, statement: bytes) -> bool:
        return signature.signer == src and self.config.scheme.verify(
            signature, statement
        )
