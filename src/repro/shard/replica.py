"""One shard member: protocol traffic plus configuration duties.

:class:`ShardReplica` wraps a :class:`~repro.core.multiobject.MultiObjectReplica`
(the unchanged per-object BFT-BC state machines) and adds everything a
member of a reconfigurable group must do:

* pin protocol envelopes to the configuration epoch (stale tags get
  ``EPOCH-STALE`` replies via the wrapped replica);
* serve the shard's directory chain (``DIR-REQ``);
* endorse successor configurations (``CFG-SIGN-REQ``) — at most one
  member set per epoch, refusing equivocation;
* adopt quorum-signed epochs (``EPOCH-INSTALL``), keeping the previous
  epoch serviceable for a bounded *handoff window* so operations straddling
  the switch finish against the old tag;
* serve and perform state transfer (``XFER-REQ``/``XFER-REPLY``).

Bootstrap safety: a joining replica pulls from a quorum (2f+1) of the
previous members, so at least f+1 replies come from correct replicas and
every write that reached a quorum of the old epoch is present in at least
one reply.  Each candidate is revalidated locally — the snapshot's
fingerprint is recomputed through a scratch
:class:`~repro.core.persistence.DurableReplicaState` and the embedded
prepare certificate is checked against the old membership — and the
highest correctly-certified timestamp wins.  Until the transfer completes
the replica answers no protocol traffic at all, so an empty state machine
can never vouch for a stale (genesis) value.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Optional

from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.multiobject import (
    EpochStaleReply,
    MultiObjectReplica,
    ObjectMessage,
    ScopedSignatureScheme,
)
from repro.core.operations import Send
from repro.core.repair import validate_repair_candidate
from repro.core.replica import BftBcReplica
from repro.crypto.hashing import hash_value
from repro.errors import ProtocolError
from repro.obs import Instrumentation
from repro.shard.directory import DirectoryEntry, ShardConfig, ShardDirectory
from repro.shard.messages import (
    ConfigSignReply,
    ConfigSignRequest,
    DirectoryReply,
    DirectoryRequest,
    InstallEpochAck,
    InstallEpochRequest,
    StateTransferReply,
    StateTransferRequest,
)
from repro.storage.base import ReplicaStore

__all__ = ["ShardReplica"]


class ShardReplica:
    """A replica serving one shard of a sharded deployment."""

    def __init__(
        self,
        node_id: str,
        shard: str,
        directory: ShardDirectory,
        template: SystemConfig,
        *,
        replica_cls: type[BftBcReplica] = BftBcReplica,
        store_factory: Optional[Callable[[str], ReplicaStore]] = None,
        instrumentation: Optional[Instrumentation] = None,
        clock: Optional[Callable[[], float]] = None,
        handoff: float = 0.5,
        bootstrap_from: Optional[ShardConfig] = None,
    ) -> None:
        self.node_id = node_id
        self.shard = shard
        #: This replica's own verified view of the configuration chains.
        self.directory = directory
        # Simulations inject the virtual clock; real deployments get the
        # monotonic wall clock so handoff windows actually close.
        self._clock = clock if clock is not None else time.monotonic
        #: Seconds the superseded epoch stays serviceable after an install.
        self.handoff = handoff
        self.config: ShardConfig = directory.config(shard)
        self.system = replace(
            template, quorums=directory.quorums(shard), verifier=None
        )
        self.inner = MultiObjectReplica(
            node_id,
            self.system,
            replica_cls=replica_cls,
            store_factory=store_factory,
        )
        self.instrumentation = instrumentation
        self.inner.set_epoch(self.config.epoch)
        #: False while this replica is still pulling state from peers.
        self.ready = bootstrap_from is None
        #: True once a later epoch dropped this replica from the group.
        self.retired = False
        self._grace_deadline: Optional[float] = None
        self._boot_prev = bootstrap_from
        self._boot_nonce: Optional[bytes] = None
        self._boot_replies: dict[str, dict[str, Any]] = {}
        #: epoch -> member set this replica endorsed (equivocation guard).
        self._signed_configs: dict[int, tuple[str, ...]] = {}
        self.sign_conflicts = 0
        self.not_ready_drops = 0
        self.transfers_served = 0
        self.bootstrap_rejects = 0

    @property
    def epoch(self) -> int:
        return self.config.epoch

    @property
    def store(self) -> None:
        """Transport adapters probe ``.store``; shard state is per object."""
        return None

    # -- dispatch ----------------------------------------------------------

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        """Process one frame; replies (if any) go back to ``sender``."""
        self._maybe_close_handoff()
        if isinstance(message, ObjectMessage):
            if self.retired:
                return EpochStaleReply(obj=message.obj, epoch=self.epoch)
            if not self.ready:
                self.not_ready_drops += 1
                return None
            return self.inner.handle(sender, message)
        if isinstance(message, DirectoryRequest):
            return self._handle_directory(message)
        if isinstance(message, ConfigSignRequest):
            return self._handle_config_sign(message)
        if isinstance(message, InstallEpochRequest):
            return self._handle_install(message)
        if isinstance(message, StateTransferRequest):
            return self._handle_transfer(message)
        if isinstance(message, StateTransferReply):
            self._handle_transfer_reply(sender, message)
            return None
        return None

    # -- directory service -------------------------------------------------

    def _handle_directory(self, message: DirectoryRequest) -> Optional[Message]:
        if message.shard != self.shard:
            return None
        return DirectoryReply(
            shard=self.shard,
            entries=tuple(
                entry.to_wire() for entry in self.directory.chain(self.shard)
            ),
        )

    # -- configuration endorsement -----------------------------------------

    def _handle_config_sign(self, message: ConfigSignRequest) -> Optional[Message]:
        if self.retired or not self.ready:
            return None
        try:
            proposal = ShardConfig.from_wire(message.config)
        except ProtocolError:
            return None
        current = self.config
        if proposal.shard != self.shard or proposal.epoch != current.epoch + 1:
            return None
        if proposal.f != current.f:
            return None
        kept = len(set(current.members) & set(proposal.members))
        if kept < len(current.members) - current.f:
            return None  # more than f members replaced at once
        endorsed = self._signed_configs.get(proposal.epoch)
        if endorsed is not None and endorsed != proposal.members:
            # A correct member signs at most one successor per epoch; this
            # is the rule that makes quorum-signed entries unequivocal.
            self.sign_conflicts += 1
            return None
        self._signed_configs[proposal.epoch] = proposal.members
        signature = self.system.scheme.sign(
            self.node_id, proposal.statement_bytes()
        )
        return ConfigSignReply(
            shard=self.shard,
            epoch=proposal.epoch,
            signature=signature.to_wire(),
        )

    # -- epoch installation ------------------------------------------------

    def _handle_install(self, message: InstallEpochRequest) -> Optional[Message]:
        try:
            entry = DirectoryEntry.from_wire(message.entry)
        except ProtocolError:
            return None
        if entry.config.shard != self.shard:
            return None
        if entry.config.epoch <= self.epoch:
            # Idempotent: re-ack installs we already adopted.
            return InstallEpochAck(shard=self.shard, epoch=self.epoch)
        try:
            advanced = self.directory.install(self.shard, entry)
        except ProtocolError:
            return None
        if advanced:
            self._adopt(entry.config)
        return InstallEpochAck(shard=self.shard, epoch=self.epoch)

    def _adopt(self, config: ShardConfig) -> None:
        previous = self.config
        self.config = config
        # Certificates formed under earlier memberships must keep
        # validating, so the new quorum system carries every historical
        # member as an extra signer.
        self.inner.update_quorums(self.directory.quorums(self.shard))
        if self.node_id not in config.members:
            self.retired = True
            self.inner.set_epoch(config.epoch)
            self._grace_deadline = None
            return
        # Bounded handoff: the superseded epoch stays acceptable until the
        # window closes, so an operation that started under the old tag can
        # still assemble its quorum.
        self.inner.set_epoch(config.epoch, also_accept=(previous.epoch,))
        self._grace_deadline = self._clock() + self.handoff

    def _maybe_close_handoff(self) -> None:
        if (
            self._grace_deadline is not None
            and self._clock() >= self._grace_deadline
        ):
            self.inner.set_epoch(self.epoch)
            self._grace_deadline = None

    # -- state transfer: serving side --------------------------------------

    def _handle_transfer(self, message: StateTransferRequest) -> Optional[Message]:
        if message.shard != self.shard or not self.ready or self.retired:
            return None
        objects = {}
        for obj in sorted(self.inner.objects):
            state = self.inner.object_state(obj)
            objects[obj] = {
                "snapshot": state.snapshot_wire(),
                "fingerprint": state.state_fingerprint(),
            }
        self.transfers_served += 1
        return StateTransferReply(
            shard=self.shard,
            nonce=message.nonce,
            epoch=self.epoch,
            objects=objects,
        )

    # -- state transfer: bootstrapping side --------------------------------

    def begin_bootstrap(self) -> list[Send]:
        """Start pulling state from the previous configuration's members.

        Returns the transfer requests to send; call again (or
        :meth:`bootstrap_retransmit`) to re-issue them on a lossy network.
        """
        if self._boot_prev is None:
            raise ProtocolError(f"{self.node_id} was not created as a joiner")
        if self._boot_nonce is None:
            # Deterministic per (replica, shard): replays in the simulator
            # reproduce byte-identical transfers.
            self._boot_nonce = hash_value(
                ("shard-bootstrap", self.node_id, self.shard)
            )[:16]
        return [
            Send(
                dest=peer,
                message=StateTransferRequest(
                    shard=self.shard, nonce=self._boot_nonce
                ),
            )
            for peer in self._boot_prev.members
            if peer != self.node_id and peer not in self._boot_replies
        ]

    def bootstrap_retransmit(self) -> list[Send]:
        """Re-request transfer from peers that have not answered yet."""
        if self.ready or self._boot_prev is None:
            return []
        return self.begin_bootstrap()

    def _handle_transfer_reply(
        self, sender: str, message: StateTransferReply
    ) -> None:
        if (
            self.ready
            or self._boot_prev is None
            or message.shard != self.shard
            or message.nonce != self._boot_nonce
            or sender not in self._boot_prev.members
            or sender in self._boot_replies
        ):
            return
        self._boot_replies[sender] = message.objects
        if len(self._boot_replies) >= self._boot_prev.quorum_size:
            self._finish_bootstrap()

    def _finish_bootstrap(self) -> None:
        assert self._boot_prev is not None
        validation_quorums = self.system.quorums
        every_obj = sorted(
            {obj for objects in self._boot_replies.values() for obj in objects}
        )
        for obj in every_obj:
            best = None
            for objects in self._boot_replies.values():
                candidate = objects.get(obj)
                if not isinstance(candidate, dict):
                    continue
                checked = self._validate_candidate(
                    obj, candidate, validation_quorums
                )
                if checked is None:
                    self.bootstrap_rejects += 1
                    continue
                ts, snapshot = checked
                if best is None or best[0] < ts:
                    best = (ts, snapshot)
            if best is None:
                continue  # nothing certifiable for this object
            state = self.inner.object_state(obj)
            state.store.write_snapshot(best[1])
            state.recover()
        self.ready = True
        self._boot_replies.clear()

    def _validate_candidate(
        self, obj: str, candidate: dict[str, Any], quorums: Any
    ):
        """Revalidate one peer's snapshot; ``(write ts, snapshot)`` or None.

        Delegates to the shared :func:`validate_repair_candidate` (also the
        core of whole-state quarantine repair), scoping the signature
        scheme to this object the way every other per-object check does.
        """
        return validate_repair_candidate(
            candidate.get("snapshot"),
            candidate.get("fingerprint"),
            ScopedSignatureScheme(self.system.scheme, obj),
            quorums,
        )
