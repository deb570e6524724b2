"""Byzantine-client attacks against the two unprotected baselines.

These demonstrate why the paper's protocol exists: the same misbehaviours
that BFT-BC provably neutralises *succeed* against the original BQS register.
Phalanx's echo certificates do stop equivocation (one hash per (client,
timestamp)), but nothing ties a proposed timestamp to any completed state:
the replica echoes whatever fresh (ts, h) the client proposes, so one round
burns the timestamp space — the gap the "non-skipping timestamps" line of
work (Bazzi & Ding [2], Cachin & Tessaro [3], §8) was created to close, and
which BFT-BC's successor-of-a-certificate rule closes structurally.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.baselines.messages import (
    BqsReadTsReply,
    BqsReadTsRequest,
    BqsWriteReply,
    BqsWriteRequest,
    PhxEchoReply,
    PhxEchoRequest,
    PhxWriteReply,
    PhxWriteRequest,
)
from repro.baselines.statements import (
    bqs_read_ts_reply_statement,
    bqs_write_statement,
    phx_echo_request_statement,
    phx_echo_statement,
    phx_write_request_statement,
)
from repro.byzantine.adversary import Adversary
from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.phases import QuorumRound, Send, signed_by, signed_reply
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value

__all__ = [
    "BqsEquivocationAttack",
    "BqsTimestampExhaustionAttack",
    "PhalanxTimestampExhaustionAttack",
    "PhalanxEquivocationAttack",
]


def _write_round(
    adversary: Adversary,
    value: Any,
    ts: Timestamp,
    only: Optional[tuple[str, ...]] = None,
) -> QuorumRound:
    """A signed BQS write of ``(value, ts)``; votes are the replicas' acks."""
    statement = bqs_write_statement(ts, hash_value(value))
    request = BqsWriteRequest(value=value, ts=ts, writer_sig=adversary.sign(statement))
    return adversary._ack_round(request, ts, BqsWriteReply, only)


class BqsEquivocationAttack(Adversary):
    """Write value A to half the replicas and value B to the other half,
    both under the same timestamp.  BQS replicas accept both, splitting the
    register's state and breaking atomicity for good readers."""

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        super().__init__(node_id, config)
        self.value_a = (node_id, 1, "A")
        self.value_b = (node_id, 1, "B")
        #: Replicas that acked each side's value; empty until the split.
        self.acks_a: Mapping[str, Any] = {}
        self.acks_b: Mapping[str, Any] = {}

    def start(self) -> list[Send]:
        nonce = self.nonces.next()

        def valid(src: str, message: Message) -> Optional[Timestamp]:
            if not isinstance(message, BqsReadTsReply) or message.nonce != nonce:
                return None
            statement = bqs_read_ts_reply_statement(message.ts, nonce)
            signed = signed_by(self.config, src, message.signature, statement)
            return message.ts if signed else None

        round_ = QuorumRound(self.config, BqsReadTsRequest(nonce=nonce), valid)
        return self._run_rounds([round_], lambda: self._split(round_))

    def _split(self, read: QuorumRound) -> list[Send]:
        ts = max(read.replies.values()).succ(self.node_id)
        replicas = self.config.quorums.replica_ids
        half = len(replicas) // 2 + 1
        # Each side only ever hears its own value, and the attack is done
        # when every replica of both sides acked.
        side_a = _write_round(self, self.value_a, ts, only=replicas[:half])
        side_b = _write_round(self, self.value_b, ts, only=replicas[half:])
        self.acks_a, self.acks_b = side_a.replies, side_b.replies
        return self._run_rounds([side_a, side_b])


class BqsTimestampExhaustionAttack(Adversary):
    """Write with an enormous timestamp.  BQS replicas accept it, burning
    the timestamp space for everyone (issue 3 of §3.2)."""

    HUGE = 10**15

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        super().__init__(node_id, config)
        self.value = (node_id, 1, "huge")
        huge = Timestamp(val=self.HUGE, client_id=node_id)
        self._write = _write_round(self, self.value, huge)
        #: Replicas that acked the huge timestamp.
        self.acks: Mapping[str, Any] = self._write.replies

    def start(self) -> list[Send]:
        return self._run_rounds([self._write])

    @property
    def succeeded(self) -> bool:
        return self._write.have_quorum


def _echo_round(
    adversary: Adversary,
    ts: Timestamp,
    value: Any,
    targets: Optional[tuple[str, ...]] = None,
) -> QuorumRound:
    """An echo request for ``(ts, h(value))``; votes are echo signatures."""
    value_hash = hash_value(value)
    request = PhxEchoRequest(
        ts=ts,
        value_hash=value_hash,
        signature=adversary.sign(phx_echo_request_statement(ts, value_hash)),
    )
    votes = signed_reply(
        adversary.config,
        PhxEchoReply,
        phx_echo_statement(ts, value_hash),
        ts=ts,
        value_hash=value_hash,
    )
    return QuorumRound(adversary.config, request, votes, targets=targets)


class PhalanxTimestampExhaustionAttack(Adversary):
    """Echo-then-write a value at an enormous timestamp.

    Phalanx replicas echo any fresh (ts, hash) pair, so the proof for
    ``ts = 10^15`` assembles normally and the write installs everywhere —
    the timestamp space is burned in one round trip.
    """

    HUGE = 10**15

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        super().__init__(node_id, config)
        self.value = (node_id, 1, "huge")
        self.ts = Timestamp(val=self.HUGE, client_id=node_id)
        self._echo = _echo_round(self, self.ts, self.value)
        self.echo_sigs: Mapping[str, Any] = self._echo.replies
        self.write_acks: Mapping[str, Any] = {}

    def start(self) -> list[Send]:
        return self._run_rounds([self._echo], self._write)

    def _write(self) -> list[Send]:
        request = PhxWriteRequest(
            value=self.value,
            ts=self.ts,
            echo_sigs=tuple(self.echo_sigs.values()),
            signature=self.sign(phx_write_request_statement(self.value, self.ts)),
        )
        write = self._ack_round(request, self.ts, PhxWriteReply)
        self.write_acks = write.replies
        return self._run_rounds([write])

    @property
    def succeeded(self) -> bool:
        return len(self.write_acks) >= self.config.quorum_size


class PhalanxEquivocationAttack(Adversary):
    """Try to obtain echo proofs for two values at one timestamp.

    This is the attack Phalanx *does* stop: each correct replica's echo log
    admits one hash per (client, ts), and quorums of 3f+1 out of 4f+1
    intersect in 2f+1 > 2f replicas, so the two proofs cannot both exist.
    """

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        super().__init__(node_id, config)
        self.ts = Timestamp(val=1, client_id=node_id)
        replicas = config.quorums.replica_ids
        half = len(replicas) // 2 + 1
        # Each half is asked first for "its" value; retransmission then
        # cross-sends both requests to every replica still silent on them.
        self._echoes = {
            "A": _echo_round(self, self.ts, (node_id, 1, "A"), replicas[:half]),
            "B": _echo_round(self, self.ts, (node_id, 1, "B"), replicas[half:]),
        }
        #: tag -> {replica: echo signature}
        self.sigs = {tag: round_.replies for tag, round_ in self._echoes.items()}

    def start(self) -> list[Send]:
        return self._run_rounds(list(self._echoes.values()))

    @property
    def proofs_obtained(self) -> int:
        return sum(round_.have_quorum for round_ in self._echoes.values())

