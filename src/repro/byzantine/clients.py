"""Byzantine client behaviours (§3.2's misbehaviour catalogue).

The paper lists four things a Byzantine client may try:

1. write different values under the same timestamp (equivocation),
2. carry out the protocol only partially (e.g. install at one replica),
3. choose a huge timestamp to exhaust the timestamp space,
4. hoard signed writes and hand them to a *colluder* who replays them after
   the client has been removed (lurking writes).

Each attack here is a sans-I/O :class:`~repro.byzantine.adversary.Adversary`:
it holds its own (legitimately registered) key, speaks the real wire protocol
and deviates from the client state machines in any way that does not require
forging another node's signature, on whichever host drives it (simulator,
socket, schedule explorer).  Attacks expose what they achieved (certificates
obtained, hoard size, acks collected) so experiments can measure the
protocol's resistance quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.byzantine.adversary import ATTEMPT_TICKS, Adversary
from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig, Variant
from repro.core.messages import (
    FastWriteReply,
    FastWriteRequest,
    Message,
    PrepareReply,
    PrepareRequest,
    ReadTsReply,
    ReadTsRequest,
    WriteReply,
    WriteRequest,
)
from repro.core.operations import Operation, Send, WriteOperation
from repro.core.phases import QuorumRound, signed_by, signed_reply
from repro.core.statements import (
    prepare_reply_statement,
    prepare_request_statement,
    read_ts_reply_statement,
    write_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value
from repro.encoding import canonical_encode
from repro.errors import KeyRevokedError

__all__ = [
    "CapturedWrite",
    "LurkingWriteAttack",
    "EquivocationAttack",
    "PartialWriteAttack",
    "TimestampExhaustionAttack",
    "Colluder",
    "CollusionChainAttack",
]


@dataclass(frozen=True)
class CapturedWrite:
    """A prepared-but-unlaunched write: the lurking-write payload.

    ``request`` is the withheld signed WRITE, or on the fast path the
    withheld FAST-WRITE: its MAC vector is keyed by the *embedded* client
    field, not the sender's network identity, so a colluder can replay it
    verbatim after the originator's key is revoked (the replayable proof of
    writing of arXiv 1212.3555, obtained by the same withholding).
    """

    value: Any
    request: Union[WriteRequest, FastWriteRequest]

    @property
    def ts(self) -> Timestamp:
        if isinstance(self.request, FastWriteRequest):
            return self.request.ts
        return self.request.prepare_cert.ts


Prepared = Callable[[PrepareCertificate, Optional[WriteCertificate]], list[Send]]


class _SignedPrepares(Adversary):
    """Hand-crafted READ-TS and PREPARE rounds, shared by the attacks that
    deviate inside phases 1-2 rather than around a whole operation."""

    def _read_ts(
        self, then: Prepared, expired: Optional[Callable[[], list[Send]]] = None
    ) -> list[Send]:
        """One READ-TS round; at a quorum ``then(p_max, justify)`` runs, with
        ``justify`` the §7 certificate assembled from the replies' timestamp
        vouches when the deployment is strong, else ``None``."""
        nonce = self.nonces.next()

        def valid(src: str, message: Message) -> Optional[ReadTsReply]:
            if not isinstance(message, ReadTsReply) or message.nonce != nonce:
                return None
            statement = read_ts_reply_statement(message.cert, nonce)
            signed = signed_by(self.config, src, message.signature, statement)
            return message if signed else None

        round_ = QuorumRound(self.config, ReadTsRequest(nonce=nonce), valid)

        def at_quorum() -> list[Send]:
            replies = list(round_.replies.values())
            p_max = max((r.cert for r in replies), key=lambda c: c.ts)
            vouches = tuple(
                r.ts_vouch
                for r in replies
                if r.cert.ts == p_max.ts and r.ts_vouch is not None
            )
            if self.config.strong and len(vouches) >= self.config.quorum_size:
                return then(p_max, WriteCertificate(ts=p_max.ts, signatures=vouches))
            return then(p_max, None)

        return self._run_rounds([round_], at_quorum, expired=expired)

    def _prepare_round(
        self,
        prev: PrepareCertificate,
        ts: Timestamp,
        value: Any,
        justify: Optional[WriteCertificate],
        *,
        signer: Optional[str] = None,
        targets: Optional[tuple[str, ...]] = None,
    ) -> QuorumRound:
        """A signed PREPARE for ``(ts, h(value))`` on top of ``prev``; the
        round's votes are the PREPARE-REPLY signatures."""
        value_hash = hash_value(value)
        statement = prepare_request_statement(prev, ts, value_hash, None, justify)
        request = PrepareRequest(
            prev_cert=prev,
            ts=ts,
            value_hash=value_hash,
            write_cert=None,
            justify_cert=justify,
            signature=self.sign(statement, signer),
        )
        votes = signed_reply(
            self.config,
            PrepareReply,
            prepare_reply_statement(ts, value_hash),
            ts=ts,
            value_hash=value_hash,
        )
        return QuorumRound(self.config, request, votes, targets=targets)

    @staticmethod
    def _certificate(round_: QuorumRound) -> PrepareCertificate:
        return PrepareCertificate(
            ts=round_.request.ts,
            value_hash=round_.request.value_hash,
            signatures=tuple(round_.replies.values()),
        )


class LurkingWriteAttack(Adversary):
    """Issue-4 attack, one spelling for every variant.

    The client completes ``warmup`` legitimate writes, then runs the
    variant's own write operation with its final WRITE / FAST-WRITE withheld
    (the hoard), then ``extra_attempts`` more of the same without completing
    the first.  Base and strong refuse each (prepare-list conflict, Lemma
    1(2): one lurking write).  On optimized and fastpath the first hoard sits
    in the optlist, so the operation's own fallback lands one explicit
    PREPARE in the still-empty normal prepare list at the *same* timestamp
    (§6.3's double hoard) and the rest are refused: exactly the bound.
    """

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        variant: Union[str, Variant] = "base",
        *,
        warmup: int = 1,
        extra_attempts: int = 2,
    ) -> None:
        super().__init__(node_id, config, variant)
        self.warmup = warmup
        self.extra_attempts = extra_attempts
        self.hoard: list[CapturedWrite] = []
        self.failed_attempts = 0
        self.write_cert: Optional[WriteCertificate] = None
        self._seq = 0

    def _write_op(self) -> WriteOperation:
        self._seq += 1
        value = (self.node_id, self._seq, "lurking")
        # ``write_cert`` is never refreshed after the hoard: the hoarded write
        # is not admitted, so every later attempt presents a stale certificate.
        return self.variant.client_cls.write_op_cls(
            self.node_id, self.config, value, self.nonces.next(), self.write_cert
        )

    def start(self) -> list[Send]:
        return self._warm_up(self.warmup)

    def _warm_up(self, remaining: int) -> list[Send]:
        if remaining == 0:
            return self._hoard_attempt(self.extra_attempts, budget=None)

        def after(op: Operation, _held: Any) -> list[Send]:
            assert isinstance(op, WriteOperation)
            self.write_cert = op.new_write_cert
            return self._warm_up(remaining - 1)

        return self._run_op(self._write_op(), after)

    def _hoard_attempt(self, attempts_left: int, budget: Optional[int]) -> list[Send]:
        # Runs with the withheld final write, or with nothing once the
        # budget expired on an attempt the replicas refuse.
        def after(op: Optional[Operation] = None, held: Any = None) -> list[Send]:
            if held is None:
                self.failed_attempts += 1
            else:
                self.hoard.append(CapturedWrite(op.value, held))
            if attempts_left == 0:
                return self._finish()
            return self._hoard_attempt(attempts_left - 1, ATTEMPT_TICKS)

        return self._run_op(
            self._write_op(), after, withhold=True, budget=budget, expired=after
        )


class EquivocationAttack(_SignedPrepares):
    """Issue-1 attack: try to get prepare certificates for two different
    values under the same timestamp by splitting the replica group.

    Records, per value, which prepare signatures were obtained.  Against
    correct replicas at most one value can ever reach a quorum (Lemma 1(3)).
    """

    def __init__(
        self, node_id: str, config: SystemConfig, variant: Union[str, Variant] = "base"
    ) -> None:
        super().__init__(node_id, config, variant)
        self.value_a = (node_id, 1, "A")
        self.value_b = (node_id, 1, "B")
        #: tag -> {replica: PREPARE-REPLY signature}; empty until the split.
        self.signatures: dict[str, dict[str, Any]] = {"A": {}, "B": {}}
        self._prepares: dict[str, QuorumRound] = {}

    def start(self) -> list[Send]:
        return self._read_ts(self._split)

    def _split(
        self, p_max: PrepareCertificate, justify: Optional[WriteCertificate]
    ) -> list[Send]:
        ts = p_max.ts.succ(self.node_id)
        replicas = self.config.quorums.replica_ids
        half = len(replicas) // 2
        # Each half is asked first for "its" value; retransmission then
        # greedily tries to top both rounds up to a quorum.
        self._prepares = {
            tag: self._prepare_round(p_max, ts, value, justify, targets=targets)
            for tag, value, targets in (
                ("A", self.value_a, replicas[:half]),
                ("B", self.value_b, replicas[half:]),
            )
        }
        self.signatures = {t: r.replies for t, r in self._prepares.items()}
        return self._run_rounds(list(self._prepares.values()))

    @property
    def certificates(self) -> dict[str, PrepareCertificate]:
        """tag -> the prepare certificate assembled for that value, if any."""
        return {
            tag: self._certificate(round_)
            for tag, round_ in self._prepares.items()
            if round_.have_quorum
        }

    @property
    def quorums_reached(self) -> int:
        return len(self.certificates)


class PartialWriteAttack(Adversary):
    """Issue-2 attack: run a legitimate write but install the value at only
    one replica, leaving the system maximally unbalanced."""

    #: Ticks to wait for the one replica's ack before giving up.
    ACK_TICKS = 10

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        variant: Union[str, Variant] = "base",
        *,
        target_index: int = 0,
    ) -> None:
        super().__init__(node_id, config, variant)
        self.value = (node_id, 1, "partial")
        self.installed_at = config.quorums.replica_ids[target_index]

    def start(self) -> list[Send]:
        op = self.variant.client_cls.write_op_cls(
            self.node_id, self.config, self.value, self.nonces.next(), None
        )
        return self._run_op(op, self._install, withhold=True)

    def _install(self, _op: Operation, request: Any) -> list[Send]:
        round_ = self._ack_round(
            request,
            CapturedWrite(self.value, request).ts,
            (WriteReply, FastWriteReply),
            only=(self.installed_at,),
        )
        return self._run_rounds([round_], budget=self.ACK_TICKS)


class TimestampExhaustionAttack(_SignedPrepares):
    """Issue-3 attack: propose an enormous timestamp.

    Against BFT-BC the PREPARE is silently discarded because the timestamp
    is not the successor of the submitted certificate's (Figure 2, phase 2
    step 1), so the attack records zero replies.
    """

    HUGE = 10**15
    _prepare: Optional[QuorumRound] = None

    def start(self) -> list[Send]:
        return self._read_ts(self._huge_prepare)

    def _huge_prepare(
        self, p_max: PrepareCertificate, justify: Optional[WriteCertificate]
    ) -> list[Send]:
        huge = Timestamp(val=self.HUGE, client_id=self.node_id)
        value = (self.node_id, 1, "huge")
        self._prepare = self._prepare_round(p_max, huge, value, justify)
        return self._run_rounds([self._prepare])

    @property
    def replies(self) -> int:
        """Valid PREPARE-REPLYs obtained for the huge timestamp."""
        return 0 if self._prepare is None else self._prepare.count


class Colluder(Adversary):
    """A node that replays a stopped client's hoarded signed writes.

    The colluder needs no write authorisation of its own: the hoarded WRITE
    requests carry the (still-verifiable) signature of the stopped client.
    Each replay is retransmitted until a quorum acked it or the ticks run out.
    """

    REPLAY_TICKS = 8

    def __init__(
        self, node_id: str, config: SystemConfig, hoard: Sequence[CapturedWrite]
    ) -> None:
        super().__init__(node_id, config)
        self.hoard = list(hoard)

    def start(self) -> list[Send]:
        replays = [
            self._ack_round(c.request, c.ts, (WriteReply, FastWriteReply))
            for c in self.hoard
        ]
        return self._run_rounds(replays, budget=self.REPLAY_TICKS)


def sign_after_revocation_fails(actor: Adversary) -> bool:
    """Helper for tests: a stopped client can no longer produce signatures."""
    try:
        actor.sign(canonical_encode(("probe",)))
    except KeyRevokedError:
        return True
    return False


class CollusionChainAttack(_SignedPrepares):
    """§7.2's motivating attack on the base protocol: a set of colluding
    clients chains prepare certificates to hoard writes with *successive*
    timestamps, none of which is ever performed.

    Member ``c_(i+1)`` uses member ``c_i``'s prepare certificate as the
    ``Pmax`` in its own PREPARE — certificates are transferable, so correct
    replicas approve each link (the timestamp is the successor of a valid
    certificate's).  The group thereby leaves ``|C|`` lurking writes whose
    timestamps dominate the next ``|C|`` good-client writes: masking them
    all takes ``|C|`` overwrites, which is why §7 strengthens the protocol
    to require a *justify* write certificate (a completed write) instead.

    Against the strong protocol the chain dies at length one: vouches for
    the current (completed) state justify the FIRST link only, and the
    second member has no write certificate for the first member's timestamp.

    One machine drives the whole group (the members collude, so sharing
    credentials is the model); to remove it, stop every id in ``identities``.
    """

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        variant: Union[str, Variant] = "base",
        *,
        members: Sequence[str] = ("client:m1", "client:m2"),
    ) -> None:
        super().__init__(node_id, config, variant)
        self.members = list(members)
        for member in self.members:
            config.registry.register(member)
        self.hoard: list[CapturedWrite] = []
        self.refused_links = 0

    @property
    def identities(self) -> frozenset[str]:
        return frozenset(self.members)

    def start(self) -> list[Send]:
        return self._read_ts(self._next_link, expired=self._refused)

    def _refused(self) -> list[Send]:
        self.refused_links += 1
        return self._finish()

    def _next_link(
        self, prev: PrepareCertificate, justify: Optional[WriteCertificate]
    ) -> list[Send]:
        if len(self.hoard) == len(self.members):
            return self._finish()
        member = self.members[len(self.hoard)]
        value = (member, 1, "chained")
        round_ = self._prepare_round(
            prev, prev.ts.succ(member), value, justify, signer=member
        )

        def linked() -> list[Send]:
            cert = self._certificate(round_)
            statement = write_request_statement(value, cert)
            request = WriteRequest(
                value=value, prepare_cert=cert, signature=self.sign(statement, member)
            )
            self.hoard.append(CapturedWrite(value, request))
            # The next member chains off this certificate: the write that
            # "justifies" its timestamp never happens, so no justify
            # certificate for it can exist.
            return self._next_link(cert, None)

        return self._run_rounds([round_], linked, expired=self._refused)
