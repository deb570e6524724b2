"""Client-side routing across shards with epoch-stale refresh.

A :class:`ShardRouter` owns one
:class:`~repro.core.multiobject.MultiObjectClient` per shard, built from
the router's verified :class:`~repro.shard.directory.ShardDirectory` and
tagged with the directory's epoch for that shard.  Operations route
through the consistent-hash ring; replies route back by object id.

When a replica answers ``EPOCH-STALE`` the router does not trust the
reply (it is unsigned): it merely starts a directory fetch from the
members it currently believes in.  The fetched entry chain *is*
authenticated — each link carries a quorum of the previous epoch's
signatures — and once the local directory advances the router *migrates*
that shard's client in place: certificate validation is rebound to the
new membership, outgoing envelopes are re-tagged with the new epoch, and
every in-flight operation resumes its current phase by retransmission.
Migration (not restart) matters: a write that already prepared a
timestamp at the continuing replicas must finish with that timestamp —
restarting it as a fresh operation would wedge against the replicas'
one-prepared-write-per-client rule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.core.client import BftBcClient
from repro.core.config import SystemConfig
from repro.core.messages import Message
from repro.core.multiobject import EpochStaleReply, MultiObjectClient
from repro.core.operations import Send
from repro.errors import ProtocolError
from repro.shard.directory import DirectoryEntry, ShardDirectory
from repro.shard.messages import DirectoryReply, DirectoryRequest
from repro.shard.ring import HashRing

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routes per-object operations to the owning shard's replica group."""

    def __init__(
        self,
        node_id: str,
        ring: HashRing,
        directory: ShardDirectory,
        template: SystemConfig,
        *,
        client_cls: type[BftBcClient] = BftBcClient,
    ) -> None:
        self.node_id = node_id
        self.ring = ring
        #: The router's own verified directory copy (refreshed on demand).
        self.directory = directory
        self._template = template
        self._client_cls = client_cls
        self._clients: dict[str, MultiObjectClient] = {}
        self._refreshing: set[str] = set()
        #: Epoch advances after which a shard's client was migrated (the
        #: migration itself resumes in-flight work; drivers need no hook).
        self.epoch_changes = 0
        self.refreshes = 0
        self.stale_replies = 0

    # -- client plumbing ---------------------------------------------------

    def shard_of(self, obj: str) -> str:
        return self.ring.shard_for(obj)

    def shard_client(self, shard: str) -> MultiObjectClient:
        client = self._clients.get(shard)
        if client is None:
            client = self._build_client(shard)
            self._clients[shard] = client
        return client

    def _build_client(self, shard: str) -> MultiObjectClient:
        config = replace(
            self._template,
            quorums=self.directory.quorums(shard),
            verifier=None,
        )
        client = MultiObjectClient(
            self.node_id, config, client_cls=self._client_cls
        )
        client.epoch = self.directory.epoch(shard)
        client.on_epoch_stale = (
            lambda sender, reply, s=shard: self._on_stale(s, reply)
        )
        return client

    # -- operations --------------------------------------------------------

    def begin_write(self, obj: str, value: Any) -> list[Send]:
        return self.shard_client(self.shard_of(obj)).begin_write(obj, value)

    def begin_read(self, obj: str) -> list[Send]:
        return self.shard_client(self.shard_of(obj)).begin_read(obj)

    def deliver(self, sender: str, message: Message) -> list[Send]:
        if isinstance(message, DirectoryReply):
            return self._handle_directory_reply(message)
        shard = self._shard_for_message(message)
        if shard is None:
            return []
        return self.shard_client(shard).deliver(sender, message)

    def retransmit(self) -> list[Send]:
        sends: list[Send] = []
        for shard, client in self._clients.items():
            sends.extend(client.retransmit())
            if shard in self._refreshing:
                sends.extend(self._fetch_directory(shard))
        return sends

    def _shard_for_message(self, message: Message) -> Optional[str]:
        obj = getattr(message, "obj", None)
        if isinstance(obj, str):
            return self.shard_of(obj)
        return None

    # -- epoch refresh -----------------------------------------------------

    def _on_stale(self, shard: str, reply: EpochStaleReply) -> list[Send]:
        self.stale_replies += 1
        # A reply for an epoch we already hold is old news — an in-flight
        # message from before our own migration bouncing off a replica.
        # Refreshing on it would loop: the fetched chain adopts nothing.
        if reply.epoch <= self.directory.epoch(shard):
            return []
        if shard in self._refreshing:
            return []
        self._refreshing.add(shard)
        return self._fetch_directory(shard)

    def _fetch_directory(self, shard: str) -> list[Send]:
        request = DirectoryRequest(shard=shard)
        return [
            Send(dest=member, message=request)
            for member in self.directory.config(shard).members
        ]

    def _handle_directory_reply(self, message: DirectoryReply) -> list[Send]:
        shard = message.shard
        if shard not in self.directory.shard_ids:
            return []
        adopted = 0
        tip = self.directory.epoch(shard)
        for wire in message.entries:
            # A bad or stale link never poisons the directory; any prefix
            # that did verify is still kept.
            try:
                entry = DirectoryEntry.from_wire(wire)
                tip = max(tip, entry.config.epoch)
                if self.directory.install(shard, entry):
                    adopted += 1
            except ProtocolError:
                break
        if self.directory.epoch(shard) >= tip:
            # Caught up (possibly via a racing reply): stop re-fetching.
            self._refreshing.discard(shard)
        if adopted == 0:
            return []
        self.refreshes += 1
        # Migrate the shard's client in place: rebind certificate
        # validation to the new membership and re-tag the epoch.  In-flight
        # operations resume where they were — their prepared timestamps are
        # still prepared at the continuing replicas, so a retransmit under
        # the new tag completes them, where a restarted operation would
        # wedge against the one-prepared-write-per-client rule.
        client = self._clients.get(shard)
        if client is None:
            self._clients[shard] = self._build_client(shard)
        else:
            client.update_quorums(self.directory.quorums(shard))
            client.epoch = self.directory.epoch(shard)
        self.epoch_changes += 1
        # Push the current phase of every in-flight operation out under the
        # new epoch tag immediately rather than waiting a retransmit tick.
        return self.shard_client(shard).retransmit()

    # -- inspection --------------------------------------------------------

    def busy(self, obj: str) -> bool:
        return self.shard_client(self.shard_of(obj)).busy(obj)

    @property
    def any_busy(self) -> bool:
        return any(client.any_busy for client in self._clients.values())

    def result(self, obj: str) -> Any:
        return self.shard_client(self.shard_of(obj)).result(obj)

    def epoch(self, shard: str) -> int:
        return self.directory.epoch(shard)
