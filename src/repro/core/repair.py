"""Quarantine-and-rebuild state repair (the self-stabilization loop).

A replica that detects corruption — a :attr:`~repro.storage.ReplicaStore.suspect`
store after recovery, or a live state that fails its periodic self-audit —
cannot serve protocol traffic: its verified state may *trail* writes it
already acknowledged, so a READ-TS or READ reply from it could help a
Byzantine client assemble a certificate for stale data.  Instead it enters
QUARANTINED mode (every request is discarded with reason ``quarantined``)
and rebuilds from its peers via the :class:`StateRepair` driver below.

The driver is sans-I/O, exactly like the client operations in
:mod:`repro.core.operations`, and counts its votes the same way: each pull
is one :class:`~repro.core.phases.QuorumRound` whose voters are the peers.
:meth:`StateRepair.begin` and :meth:`StateRepair.retransmit` return
:class:`~repro.core.phases.Send` batches and :meth:`StateRepair.on_reply`
consumes replies, so the same object runs on the deterministic simulator,
over asyncio TCP, and inside :class:`~repro.cluster.process.ProcessCluster`
workers.

Safety (see PROTOCOL.md for the full argument):

* Replies are collected from a **quorum (2f+1)** of distinct peers, of
  which at most *f* are Byzantine, so at least f+1 candidates come from
  correct replicas — and any write that completed at a quorum is present
  in at least one of them (quorum intersection).
* Nothing in a reply is trusted: each candidate snapshot is replayed
  through a scratch :class:`~repro.core.persistence.DurableReplicaState`,
  its fingerprint recomputed, and its embedded prepare certificate
  re-verified against the quorum system
  (:func:`validate_repair_candidate`).  A Byzantine peer cannot mint a
  certified timestamp the group never prepared, so "highest
  correctly-certified timestamp wins" (:func:`best_repair_candidate`,
  shared with the shard bootstrap) can only move the repaired replica
  *forward*.
* The repaired replica keeps its **own** surviving signing logs
  (``swr``/``spr``/``fastc``) instead of adopting a peer's: signing logs
  are records of what *this* replica signed, and importing another
  replica's would double-count signatures in the Lemma 1 accounting.
  Losing part of its own log to the corruption is covered by the fault
  model — the corrupted replica counts against *f* while quarantined, and
  quorum intersection tolerates one forgetful replica after it rejoins.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.core.messages import RepairReply, RepairRequest
from repro.core.persistence import DurableReplicaState
from repro.core.phases import QuorumRound, Send
from repro.crypto.hashing import hash_value
from repro.errors import ProtocolError, StorageError
from repro.storage.base import MemoryStore

__all__ = ["validate_repair_candidate", "best_repair_candidate", "StateRepair"]


def validate_repair_candidate(
    snapshot: Any,
    claimed_fingerprint: Any,
    scheme: Any,
    quorums: Any,
    *,
    cert_check: Optional[Callable[[Any], bool]] = None,
) -> Optional[tuple[Any, Any]]:
    """Revalidate one peer's snapshot; ``(certified ts, snapshot)`` or None.

    The fingerprint recomputation catches transfer corruption and any
    snapshot the state layer cannot even rebuild; the prepare-certificate
    check is the unforgeable part — a Byzantine peer cannot mint a
    certified timestamp the group never prepared.  Shared by the shard
    bootstrap (per-object, with a scoped scheme) and whole-state repair.

    ``cert_check`` substitutes the verifying replica's own
    certificate-acceptance hook for the default third-party
    ``pcert.is_valid``.  The fast-path variant needs this: a peer whose
    current certificate carries signature-free *proof* evidence is only
    checkable through the verifier's own MAC column — exactly the rule the
    replica already applies to live FAST-WRITE traffic, so repair adds no
    new trust assumption.
    """
    scratch = DurableReplicaState(MemoryStore(snapshot_interval=None))
    scratch.store.write_snapshot(snapshot)
    try:
        scratch.recover()
    except (StorageError, ProtocolError, KeyError, TypeError, ValueError):
        return None
    if scratch.fingerprint() != claimed_fingerprint:
        return None
    pcert = scratch.pcert
    if not pcert.is_genesis:
        if cert_check is not None:
            if not cert_check(pcert):
                return None
        elif not pcert.is_valid(scheme, quorums):
            return None
    return pcert.ts, snapshot


def best_repair_candidate(
    candidates: Iterable[tuple[Any, Any]],
    scheme: Any,
    quorums: Any,
    *,
    cert_check: Optional[Callable[[Any], bool]] = None,
) -> tuple[Optional[Any], int]:
    """The snapshot of the highest validly certified candidate, and the
    number of candidates that failed :func:`validate_repair_candidate`.

    ``candidates`` are ``(snapshot, claimed fingerprint)`` pairs; on a tie
    the first one wins, so the caller's order decides (repair sorts by
    sender, the shard bootstrap keeps arrival order).  The snapshot is
    ``None`` when no candidate validates.
    """
    best: Optional[tuple[Any, Any]] = None
    rejects = 0
    for snapshot, fingerprint in candidates:
        checked = validate_repair_candidate(
            snapshot, fingerprint, scheme, quorums, cert_check=cert_check
        )
        if checked is None:
            rejects += 1
        elif best is None or best[0] < checked[0]:
            best = checked
    return (None if best is None else best[1]), rejects


class StateRepair:
    """Sans-I/O driver rebuilding one replica's state from its peers.

    Each pull is one :class:`~repro.core.phases.QuorumRound` whose voters
    are the peers: the round keeps one reply per peer, ignores the
    repairing replica itself and strangers, and retransmits to the silent
    peers.  This driver adds the round's nonce and the completion rule.

    Args:
        node_id: the repairing replica's id (put in requests so peers can
            address their replies, and bound into the round nonce).
        config: the replica's :class:`~repro.core.config.SystemConfig`
            (supplies the quorum system and signature scheme used to
            revalidate candidates).
        install: callback receiving the winning snapshot wire value; the
            hosting replica installs it and exits quarantine.
        cert_check: the hosting replica's certificate-acceptance hook (see
            :func:`validate_repair_candidate`); None means third-party
            ``is_valid``.
    """

    def __init__(
        self,
        node_id: str,
        config: Any,
        install: Callable[[dict[str, Any]], None],
        *,
        cert_check: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self._install = install
        self._cert_check = cert_check
        #: Every other replica: the voters of each repair round.
        self.peers: tuple[str, ...] = tuple(
            p for p in config.quorums.replica_ids if p != node_id
        )
        self.active = False
        self.rounds = 0
        self.rejects = 0
        self._nonce: Optional[bytes] = None
        #: The current pull's round (its ``replies`` are the peers' votes).
        self.round: Optional[QuorumRound] = None

    @property
    def nonce(self) -> Optional[bytes]:
        return self._nonce

    def begin(self) -> list[Send]:
        """Start (or restart) a repair round; returns the pull requests.

        Deterministic per (replica, round): replays in the simulator
        reproduce byte-identical transfers.
        """
        self.active = True
        self.rounds += 1
        nonce = hash_value(("state-repair", self.node_id, self.rounds))[:16]
        self._nonce = nonce
        self.round = QuorumRound(
            self.config,
            RepairRequest(replica=self.node_id, nonce=nonce),
            lambda sender, message: message if message.nonce == nonce else None,
            voters=self.peers,
        )
        return self.round.begin()

    def retransmit(self) -> list[Send]:
        """Re-request from peers that have not answered this round yet."""
        if not self.active:
            return []
        return self.round.retransmit()

    def on_reply(self, sender: str, message: RepairReply) -> bool:
        """Consume one peer's reply; True when the repair just completed.

        Completion needs a quorum of replies *and* at least one candidate
        that survives revalidation; with at most f Byzantine repliers in a
        2f+1 quorum the latter always holds, but a defensive driver keeps
        collecting from the stragglers rather than trusting that bound.
        """
        if not self.active or not self.round.add(sender, message):
            return False
        if not self.round.have_quorum:
            return False
        replies = self.round.replies
        # Candidates are revalidated from scratch on every attempt, in
        # sender order so the winner is deterministic when several peers
        # hold the same (highest) certified timestamp.
        snapshot, rejects = best_repair_candidate(
            (
                (replies[sender].snapshot, replies[sender].fingerprint)
                for sender in sorted(replies)
            ),
            self.config.scheme,
            self.config.quorums,
            cert_check=self._cert_check,
        )
        if snapshot is None:
            # Every reply so far failed validation; stay active and let
            # late replies / the next retransmit round supply a good one.
            return False
        # The reject counter is settled only once, at completion.
        self.rejects += rejects
        self.active = False
        self.round = None
        self._install(snapshot)
        return True
