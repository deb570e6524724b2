"""Byzantine replica behaviours.

Up to ``f`` replicas may deviate arbitrarily (§2).  These classes model the
deviations that matter for a quorum register; each is a drop-in replacement
installed via ``ClusterOptions.replica_overrides``.

None of them can forge other nodes' signatures — that is the §2 assumption —
so their power is limited to lying with their *own* key, staying silent, or
replying with stale or fabricated state.
"""

from __future__ import annotations

from typing import Optional

from repro.core.certificates import PrepareCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    Message,
    PrepareReply,
    PrepareRequest,
    ReadReply,
    ReadRequest,
    ReadTsReply,
    ReadTsRequest,
)
from repro.core.replica import BftBcReplica, OptimizedBftBcReplica
from repro.core.statements import (
    prepare_reply_statement,
    read_reply_statement,
    read_ts_reply_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.signatures import Signature

__all__ = [
    "CrashedReplica",
    "SilentOptimizedReplica",
    "StaleReplica",
    "PromiscuousReplica",
    "CorruptingReplica",
    "ForgingReplica",
    "DelayingReplica",
    "TwoFacedReplica",
]


class CrashedReplica(BftBcReplica):
    """Fails benignly: never replies to anything."""

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        self.stats.handled[message.KIND] += 1
        return None


class SilentOptimizedReplica(OptimizedBftBcReplica):
    """Crashed replica for optimized-variant clusters."""

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        self.stats.handled[message.KIND] += 1
        return None


class StaleReplica(BftBcReplica):
    """Processes requests but never installs any write: always serves the
    genesis state.  Models a replica that discards updates."""

    def _should_install(self, cert: PrepareCertificate) -> bool:
        return False


class PromiscuousReplica(BftBcReplica):
    """A colluding replica: signs *any* prepare request without checking the
    timestamp-succession rule or its prepare list.

    This is the strongest help a single replica can give a Byzantine client
    trying to hoard prepare certificates.  Safety survives because a
    certificate needs 2f+1 distinct signers and at most f replicas behave
    like this.
    """

    def _handle_prepare(self, message: PrepareRequest) -> Optional[PrepareReply]:
        signature = self.config.scheme.sign(
            self.node_id,
            prepare_reply_statement(message.ts, message.value_hash),
        )
        return PrepareReply(
            ts=message.ts, value_hash=message.value_hash, signature=signature
        )


class CorruptingReplica(BftBcReplica):
    """Returns a fabricated value (under its genuine stored certificate) on
    reads.  Correct clients reject the reply because the certificate's hash
    does not match the value."""

    def _handle_read(self, message: ReadRequest) -> ReadReply:
        garbage = ("corrupt", self.node_id)
        signature = self._sign(read_reply_statement(garbage, self.pcert, message.nonce))
        return ReadReply(
            value=garbage,
            cert=self.pcert,
            nonce=message.nonce,
            signature=signature,
            ts_vouch=self._ts_vouch(),
        )


class ForgingReplica(BftBcReplica):
    """Returns a certificate with an absurdly high timestamp whose signatures
    are all produced by *itself* under other replicas' names (forgery).
    Correct clients reject it during certificate validation."""

    def _handle_read_ts(self, message: ReadTsRequest) -> ReadTsReply:
        fake_ts = Timestamp(val=10**9, client_id="client:nobody")
        fake_hash = self.pcert.value_hash
        fake_sigs = tuple(
            Signature(signer=rid, value=b"\x00" * 32)
            for rid in self.config.quorums.replica_ids[: self.config.quorum_size]
        )
        fake_cert = PrepareCertificate(
            ts=fake_ts, value_hash=fake_hash, signatures=fake_sigs
        )
        signature = self._sign(read_ts_reply_statement(fake_cert, message.nonce))
        return ReadTsReply(
            cert=fake_cert,
            nonce=message.nonce,
            signature=signature,
            ts_vouch=self._ts_vouch(),
        )


class DelayingReplica(BftBcReplica):
    """Processes requests correctly but lets its node adapter know replies
    should be slow — models a laggard that inflates tail latency without
    being faulty enough to exclude.  Quorum protocols must not wait for it.

    The delay itself is applied by the simulator adapter via the marker
    attribute; the state machine stays correct.
    """

    #: Virtual-time delay the adapter should add to every reply.
    reply_delay = 0.25


class TwoFacedReplica(BftBcReplica):
    """Answers reads with the *previous* value it held for even-numbered
    requesters and the current one for others — a consistency attack on
    readers.  Defeated because every reply carries the certificate that
    vouches for its value: the stale pair (old value, old certificate) is
    simply an old truth, and the reader's quorum + write-back still yield
    atomicity; a *mismatched* pair fails the hash check.
    """

    def __init__(self, node_id: str, config: SystemConfig) -> None:
        super().__init__(node_id, config)
        self._previous: Optional[tuple] = None  # (data, pcert)
        self._flip = 0

    def _should_install(self, cert: PrepareCertificate) -> bool:
        if super()._should_install(cert):
            self._previous = (self.data, self.pcert)
            return True
        return False

    def _handle_read(self, message: ReadRequest) -> ReadReply:
        from repro.core.statements import read_reply_statement

        self._flip += 1
        if self._previous is not None and self._flip % 2 == 0:
            old_data, old_cert = self._previous
            signature = self._sign(
                read_reply_statement(old_data, old_cert, message.nonce)
            )
            return ReadReply(
                value=old_data,
                cert=old_cert,
                nonce=message.nonce,
                signature=signature,
                ts_vouch=self._ts_vouch(),
            )
        return super()._handle_read(message)
