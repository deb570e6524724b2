"""Client-driven online reconfiguration (arXiv 2005.13499 style).

The :class:`Reconfigurator` is a *client* of the shard: it never runs
consensus.  To replace member ``remove`` with ``add`` in a shard at epoch
``e`` it:

1. registers ``add`` with the PKI and proposes the epoch ``e+1``
   configuration to the epoch-``e`` members (``CFG-SIGN-REQ``);
2. collects 2f+1 endorsement signatures — a quorum of the *old* epoch —
   into a :class:`~repro.shard.directory.DirectoryEntry`;
3. pushes the entry to every old and new member (``EPOCH-INSTALL``) and
   waits for acks from a quorum of the *new* members;
4. optionally revokes the removed member's key, so it can endorse no
   future configurations and sign no fresh certificates, while everything
   it legitimately signed in the past keeps verifying.

Because each correct member signs at most one successor per epoch, two
reconfigurators racing for epoch ``e+1`` with different member sets cannot
both assemble a quorum: their signer sets would intersect in a correct
replica.  The loser simply observes the winner's entry when refreshing and
retries against ``e+1``.

The class is sans-I/O like the protocol clients: ``begin_replace()`` and
``deliver()`` return :class:`~repro.core.phases.Send` batches for the
caller's transport, and ``retransmit()`` re-issues the current phase.  Each
phase is one :class:`~repro.core.phases.QuorumRound`: the sign round's
voters are the old members but the removed one, the install round's are
the old and new members, and the round keeps one vote per voter.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.phases import QuorumRound, Send, signed_by
from repro.crypto.signatures import Signature
from repro.errors import CryptoError, ProtocolError, UnknownSignerError
from repro.shard.directory import DirectoryEntry, ShardConfig, ShardDirectory
from repro.shard.messages import (
    ConfigSignReply,
    ConfigSignRequest,
    InstallEpochAck,
    InstallEpochRequest,
)

__all__ = ["Reconfigurator"]


class Reconfigurator:
    """Drives one membership change in one shard, under live traffic."""

    def __init__(
        self,
        node_id: str,
        shard: str,
        directory: ShardDirectory,
        template: SystemConfig,
        *,
        revoke_removed: bool = False,
    ) -> None:
        self.node_id = node_id
        self.shard = shard
        self.directory = directory
        self._template = template
        self._revoke_removed = revoke_removed
        self.phase = "idle"  # idle -> signing -> installing -> done
        self._old: Optional[ShardConfig] = None
        self._proposal: Optional[ShardConfig] = None
        self._remove: Optional[str] = None
        self._entry: Optional[DirectoryEntry] = None
        #: The current phase's round: endorsement signatures while
        #: signing, install acks while installing.
        self.round: Optional[QuorumRound] = None

    @property
    def done(self) -> bool:
        return self.phase == "done"

    @property
    def entry(self) -> Optional[DirectoryEntry]:
        """The installed entry once the run completed."""
        return self._entry

    # -- protocol ----------------------------------------------------------

    def begin_replace(self, remove: str, add: str) -> list[Send]:
        """Propose replacing ``remove`` with ``add``; returns sign requests.

        The proposal goes to every old member except the one being removed
        — it may well be dead, which is the usual reason for the change —
        leaving exactly 3f reachable candidates for the 2f+1 signatures.
        """
        if self.phase != "idle":
            raise ProtocolError(f"reconfigurator already {self.phase}")
        old = self.directory.config(self.shard)
        if remove not in old.members:
            raise ProtocolError(f"{remove!r} is not a member of {self.shard!r}")
        if add in old.members:
            raise ProtocolError(f"{add!r} is already a member of {self.shard!r}")
        members = tuple(add if m == remove else m for m in old.members)
        self._old = old
        self._remove = remove
        proposal = ShardConfig(
            shard=self.shard, epoch=old.epoch + 1, members=members, f=old.f
        )
        self._proposal = proposal
        # Provision the joiner's key before anyone is asked to talk to it.
        self._template.registry.register(add)
        statement = proposal.statement_bytes()

        def endorsement(
            sender: str, message: ConfigSignReply
        ) -> Optional[Signature]:
            if message.shard != self.shard or message.epoch != proposal.epoch:
                return None
            try:
                signature = Signature.from_wire(message.signature)
            except (CryptoError, TypeError, ValueError):
                return None
            if not signed_by(self._template, sender, signature, statement):
                return None
            return signature

        self.phase = "signing"
        self.round = QuorumRound(
            self._template,
            ConfigSignRequest(config=proposal.to_wire()),
            endorsement,
            voters=tuple(m for m in old.members if m != remove),
            threshold=old.quorum_size,
        )
        return self.round.begin()

    def deliver(self, sender: str, message: Message) -> list[Send]:
        if self.phase == "signing" and isinstance(message, ConfigSignReply):
            if self.round.add(sender, message) and self.round.have_quorum:
                return self._begin_install()
        elif self.phase == "installing" and isinstance(message, InstallEpochAck):
            if self.round.add(sender, message) and self._new_quorum_acked():
                self._finish()
        return []

    def retransmit(self) -> list[Send]:
        if self.phase in ("signing", "installing"):
            return self.round.retransmit()
        return []

    # -- install phase -----------------------------------------------------

    def _begin_install(self) -> list[Send]:
        assert self._old is not None and self._proposal is not None
        signatures = self.round.replies
        self._entry = DirectoryEntry(
            config=self._proposal,
            signatures=tuple(
                signatures[m] for m in self._old.members if m in signatures
            ),
        )
        epoch = self._proposal.epoch

        def ack(sender: str, message: InstallEpochAck) -> Optional[bool]:
            if message.shard != self.shard or message.epoch < epoch:
                return None
            return True

        self.phase = "installing"
        self.round = QuorumRound(
            self._template,
            InstallEpochRequest(entry=self._entry.to_wire()),
            ack,
            voters=tuple(
                dict.fromkeys(self._old.members + self._proposal.members)
            ),
        )
        return self.round.begin()

    def _new_quorum_acked(self) -> bool:
        """A quorum of the *new* members acked (old members' acks only
        stop their retransmits)."""
        config = self._proposal
        new_acks = self.round.responders() & frozenset(config.members)
        return len(new_acks) >= config.quorum_size

    def _finish(self) -> None:
        # A quorum of the new epoch serves it: the change is durable (any
        # later quorum intersects this one in a correct replica).
        self.directory.install(self.shard, self._entry)
        # Revocation is opt-in: right for a crashed or suspect member (it
        # can then endorse no future configurations and sign no fresh
        # statements, while its past signatures keep verifying), wrong for
        # a graceful drain — a removed-but-running member must still sign
        # replies to old-epoch traffic until the handoff window closes.
        if self._revoke_removed and self._remove is not None:
            try:
                self._template.registry.revoke(self._remove)
            except UnknownSignerError:  # pragma: no cover - never registered
                pass
        self.phase = "done"
