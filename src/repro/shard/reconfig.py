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

The class is sans-I/O like the protocol clients: ``begin()`` and
``deliver()`` return :class:`~repro.core.operations.Send` batches for the
caller's transport, and ``retransmit()`` re-issues the current phase.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.operations import Send
from repro.core.phases import signed_by
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
        self._signatures: dict[str, Signature] = {}
        self._entry: Optional[DirectoryEntry] = None
        self._acks: set[str] = set()

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
        self._proposal = ShardConfig(
            shard=self.shard, epoch=old.epoch + 1, members=members, f=old.f
        )
        # Provision the joiner's key before anyone is asked to talk to it.
        self._template.registry.register(add)
        self.phase = "signing"
        return self._sign_requests()

    def deliver(self, sender: str, message: Message) -> list[Send]:
        if self.phase == "signing" and isinstance(message, ConfigSignReply):
            return self._on_sign_reply(sender, message)
        if self.phase == "installing" and isinstance(message, InstallEpochAck):
            return self._on_ack(sender, message)
        return []

    def retransmit(self) -> list[Send]:
        if self.phase == "signing":
            return self._sign_requests()
        if self.phase == "installing":
            return self._install_requests()
        return []

    # -- signing phase -----------------------------------------------------

    def _sign_requests(self) -> list[Send]:
        assert self._old is not None and self._proposal is not None
        request = ConfigSignRequest(config=self._proposal.to_wire())
        return [
            Send(dest=member, message=request)
            for member in self._old.members
            if member != self._remove and member not in self._signatures
        ]

    def _on_sign_reply(
        self, sender: str, message: ConfigSignReply
    ) -> list[Send]:
        assert self._old is not None and self._proposal is not None
        if (
            message.shard != self.shard
            or message.epoch != self._proposal.epoch
            or sender not in self._old.members
            or sender in self._signatures
        ):
            return []
        try:
            signature = Signature.from_wire(message.signature)
        except (CryptoError, TypeError, ValueError):
            return []
        statement = self._proposal.statement_bytes()
        if not signed_by(self._template, sender, signature, statement):
            return []
        self._signatures[sender] = signature
        if len(self._signatures) < self._old.quorum_size:
            return []
        self._entry = DirectoryEntry(
            config=self._proposal,
            signatures=tuple(
                self._signatures[m]
                for m in self._old.members
                if m in self._signatures
            ),
        )
        self.phase = "installing"
        return self._install_requests()

    # -- install phase -----------------------------------------------------

    def _install_requests(self) -> list[Send]:
        assert self._entry is not None and self._old is not None
        request = InstallEpochRequest(entry=self._entry.to_wire())
        targets = dict.fromkeys(
            tuple(self._old.members) + self._entry.config.members
        )
        return [
            Send(dest=member, message=request)
            for member in targets
            if member not in self._acks
        ]

    def _on_ack(self, sender: str, message: InstallEpochAck) -> list[Send]:
        assert self._entry is not None
        config = self._entry.config
        if (
            message.shard != self.shard
            or message.epoch < config.epoch
            or sender in self._acks
        ):
            return []
        self._acks.add(sender)
        new_acks = self._acks & set(config.members)
        if len(new_acks) < config.quorum_size:
            return []
        # A quorum of the new epoch serves it: the change is durable (any
        # later quorum intersects this one in a correct replica).
        self.directory.install(self.shard, self._entry)
        # Revocation is opt-in: right for a crashed or suspect member (it
        # can then endorse no future configs and sign no fresh statements,
        # while its past signatures keep verifying), wrong for a graceful
        # drain — a removed-but-running member must still sign replies to
        # old-epoch traffic until the handoff window closes.
        if self._revoke_removed and self._remove is not None:
            try:
                self._template.registry.revoke(self._remove)
            except UnknownSignerError:  # pragma: no cover - never registered
                pass
        self.phase = "done"
        return []
