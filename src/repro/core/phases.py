"""The quorum-round phase engine shared by every protocol variant.

Each phase of every BFT-BC operation — base three-phase writes, the §6
optimized fast path and its fallback, the §7 strong variant's fetch and
write-back, plain reads, and the §3.2.2 read write-back — has the same shape:
send a request batch, validate at most one reply per replica, stop at a
quorum, and retransmit to the silent set.  :class:`QuorumRound` captures that
shape once so the variant modules keep only their genuinely variant logic,
and so the one-valid-vote-per-replica guard lives in exactly one place (a
Byzantine replica can never get two votes in any phase of any variant).
The replica-side quorum loops run on it too — quarantine repair
(:mod:`repro.core.repair`), a shard joiner's state transfer and both phases
of a shard reconfiguration — each naming its own voter set.

The vote's other half lives here too: a reply is a vote only if the replica
that sent it signed it (the quorum arguments count distinct replicas'
signatures).  :func:`signed_by` is that one check for every client, baseline,
adversary and reconfigurator, and :func:`signed_reply` validates a round
whose replies all sign one statement, encoded once when the round begins.

The engine is sans-I/O: it emits :class:`Send` batches and consumes replies,
so identical code runs under the deterministic simulator and the asyncio TCP
transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.core.messages import Message
from repro.crypto.signatures import Signature
from repro.obs.spans import NULL_SPAN, SpanHandle

if TYPE_CHECKING:  # avoid an import cycle: config imports nothing from here
    from repro.core.config import SystemConfig

__all__ = ["Send", "QuorumRound", "signed_by", "signed_reply"]

Validator = Callable[[str, Message], Optional[Any]]


def signed_by(
    config: SystemConfig, sender: str, signature: Signature, statement: bytes
) -> bool:
    """Is ``signature`` the sender's own, over ``statement``?  A Byzantine
    replica relaying another's signed reply must earn no vote."""
    return signature.signer == sender and config.verifier.verify(
        signature, statement
    )


def signed_reply(
    config: SystemConfig, reply_cls: type, statement: bytes, **expected: Any
) -> Validator:
    """The validator of a round whose replies all sign ``statement``: a vote
    is the signature of a ``reply_cls`` whose attributes equal ``expected``
    (``ts=..., value_hash=...``) and which its sender signed."""

    def valid(sender: str, message: Message) -> Optional[Signature]:
        if not isinstance(message, reply_cls):
            return None
        if any(getattr(message, name) != want for name, want in expected.items()):
            return None
        if not signed_by(config, sender, message.signature, statement):
            return None
        return message.signature

    return valid


@dataclass(frozen=True)
class Send:
    """An outgoing message addressed to one node."""

    dest: str
    message: Message


class QuorumRound:
    """One request/reply round against the replica group.

    A round owns the four ingredients every phase repeats: the request to
    (re)send, the validator that derives a vote from a reply, the quorum
    predicate, and the retransmit set.  The validator receives
    ``(sender, message)`` and returns the value to record (possibly a derived
    object, e.g. a signature) or ``None`` to reject.  Senders that are not
    voters (by default, not replicas), or that already voted, are ignored —
    one valid vote per voter per round, enforced here for every variant.

    Args:
        config: the deployment configuration (quorum system, options).
        request: the message retransmitted to silent replicas; ``None`` for
            collector-only use (no send side).
        validator: per-reply validation returning the vote or ``None``.
        targets: initial recipients; defaults to every replica, trimmed to a
            preferred quorum when ``config.prefer_quorum`` is set (§3.3.1's
            O(|Q|) message discipline — retransmission widens naturally).
        threshold: votes needed for :attr:`have_quorum`; defaults to
            ``config.quorum_size`` (2f+1).
        prefill: votes credited before any reply arrives — e.g. replicas a
            read already knows are up to date (§3.2.2), or phase-1 prepare
            signatures seeding the §6 fallback.
        span: the open phase span this round reports into (retransmit and
            vote counters); defaults to the no-op :data:`NULL_SPAN`.
        voters: the nodes whose replies count and who get retransmits (and,
            unless ``targets`` says otherwise, the first batch); defaults
            to the configuration's replicas.  Rounds that are not a
            client's — repair, shard bootstrap, reconfiguration — name
            their peers, the previous members or the epoch's members here.
    """

    def __init__(
        self,
        config: "SystemConfig",
        request: Optional[Message],
        validator: Validator,
        *,
        targets: Optional[tuple[str, ...]] = None,
        threshold: Optional[int] = None,
        prefill: Optional[Mapping[str, Any]] = None,
        span: SpanHandle = NULL_SPAN,
        voters: Optional[tuple[str, ...]] = None,
    ) -> None:
        self._config = config
        self._validator = validator
        self._voters = voters
        self._is_voter: Callable[[str], bool] = (
            config.quorums.is_replica
            if voters is None
            else frozenset(voters).__contains__
        )
        self.request = request
        self.span = span
        self.threshold = (
            config.quorum_size if threshold is None else threshold
        )
        if targets is None:
            if voters is not None:
                targets = voters
            else:
                targets = config.quorums.replica_ids
                if config.prefer_quorum:
                    targets = targets[: config.quorum_size]
        self.targets = targets
        self.replies: dict[str, Any] = {}
        if prefill:
            for sender, vote in prefill.items():
                self.credit(sender, vote)

    # -- sending -----------------------------------------------------------

    def begin(self) -> list[Send]:
        """The initial request batch for this round."""
        if self.request is None:
            return []
        return [Send(dest, self.request) for dest in self.targets]

    def retransmit(self) -> list[Send]:
        """Resend the request to every replica that has not validly voted."""
        if self.request is None:
            return []
        sends = [Send(dest, self.request) for dest in self.missing()]
        if sends:
            self.span.incr("retransmits")
        return sends

    # -- vote collection ---------------------------------------------------

    def add(self, sender: str, message: Message) -> bool:
        """Record ``message`` if valid and novel; return True on acceptance."""
        if sender in self.replies:
            return False
        if not self._is_voter(sender):
            return False
        accepted = self._validator(sender, message)
        if accepted is None:
            return False
        self.replies[sender] = accepted
        return True

    def credit(self, sender: str, vote: Any) -> bool:
        """Record a vote obtained outside this round (no message to validate).

        Subject to the same guards as :meth:`add` — a non-voter is
        rejected and a replica can never end up with two votes.
        """
        if sender in self.replies:
            return False
        if not self._is_voter(sender):
            return False
        self.replies[sender] = vote
        return True

    @property
    def count(self) -> int:
        """Number of distinct valid votes collected so far."""
        return len(self.replies)

    @property
    def have_quorum(self) -> bool:
        """True once the vote count reaches the round's threshold."""
        return self.count >= self.threshold

    def responders(self) -> frozenset[str]:
        """The voters whose votes were accepted."""
        return frozenset(self.replies)

    def missing(self) -> tuple[str, ...]:
        """Voters that have not yet validly replied (retransmit targets)."""
        voters = self._voters
        if voters is None:
            voters = self._config.quorums.replica_ids
        return tuple(r for r in voters if r not in self.replies)
