"""Closed-form cost model of §3.3, derived from the declared protocol.

§3.3.1: an operation is O(|Q|) messages and O(|Q|^2) total bytes (some
messages carry certificates of size O(|Q|)); replica state is O(|C|) prepare
list entries plus an O(|Q|) certificate.  §3.3.2: each write costs two
public-key signatures per replica (phase-2 and phase-3 replies).

Every per-variant count is computed from the variant's
:class:`~repro.core.config.Protocol` declaration, which the protocol tests
check each operation against; the reconfiguration, state-transfer, repair
and directory-fetch counts are hand-written closed forms.  Byte numbers are
parameterised by measured constants so experiments fit only the *shape*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.config import READ_OPERATION, Carry, Phase, Variant
from repro.core.quorum import QuorumSystem

__all__ = ["CostModel", "WRITE_PHASES", "READ_PHASES"]

#: Phases per write by variant (normal case / worst case), from the
#: declaration.
WRITE_PHASES = {
    variant.value: (len(variant.protocol.write), len(variant.protocol.worst_write))
    for variant in Variant
}
#: Phases per read (no write-back / write-back).
READ_PHASES = (1, len(READ_OPERATION))

#: Wire size of one MAC (HMAC-SHA256).
MAC_BYTES = 32


@dataclass(frozen=True)
class CostModel:
    """Analytical message/byte/signature counts for one configuration.

    Attributes:
        quorums: the deployment shape.
        signature_bytes: wire size of one signature (measured).
        header_bytes: fixed per-message overhead (measured).
        value_bytes: size of the application value (workload parameter).
    """

    quorums: QuorumSystem
    signature_bytes: int = 80
    header_bytes: int = 64
    value_bytes: int = 32

    @property
    def certificate_bytes(self) -> int:
        """A certificate is a quorum of signatures: O(|Q|)."""
        return self.quorums.quorum_size * self.signature_bytes + self.header_bytes

    def _message_bytes(self, carries: Iterable[Carry]) -> int:
        """Header plus each carried item; a proof of writing is O(|Q|^2)."""
        row = self.quorums.n * MAC_BYTES
        size = {
            Carry.CERTIFICATE: self.certificate_bytes,
            Carry.VALUE: self.value_bytes,
            Carry.MAC_ROW: row,
            Carry.ACK_ROW: row,
            Carry.PROOF: 64 + self.quorums.n * row,
            Carry.ENVELOPE: MAC_BYTES,
        }
        return self.header_bytes + sum(size[item] for item in carries)

    def _rounds_bytes(self, phases: Iterable[Phase]) -> int:
        """Every phase is one request to and one reply from each replica."""
        return self.quorums.n * sum(
            self._message_bytes(phase.request_carries)
            + self._message_bytes(phase.reply_carries)
            for phase in phases
        )

    @staticmethod
    def _read(write_back: bool) -> tuple[Phase, ...]:
        return READ_OPERATION if write_back else READ_OPERATION[:1]

    # -- message counts (reliable network, no retransmissions) -----------------

    def write_messages(self, variant: str = "base") -> int:
        """Messages for one write: one RPC (request+reply to all n) per phase."""
        return 2 * len(Variant.coerce(variant).protocol.write) * self.quorums.n

    def read_messages(self, *, write_back: bool = False) -> int:
        """Messages for one read; the write-back is bounded by n replicas."""
        return 2 * len(self._read(write_back)) * self.quorums.n

    # -- byte counts -----------------------------------------------------------

    def write_bytes(self, variant: str = "base") -> int:
        """Total bytes for one write: O(|Q|) certificates to O(|Q|) replicas,
        O(|Q|^2); the fast path's proof of writing is O(|Q|^2) on its own."""
        return self._rounds_bytes(Variant.coerce(variant).protocol.write)

    def read_bytes(self, *, write_back: bool = False) -> int:
        """Total bytes for one read (value + certificate replies)."""
        return self._rounds_bytes(self._read(write_back))

    # -- state sizes ------------------------------------------------------------

    def replica_state_bytes(self, writers: int) -> int:
        """data + certificate + prepare list: O(1) + O(|Q|) + O(|C|)."""
        plist_entry = 16 + 32  # timestamp + hash
        return (
            self.value_bytes
            + self.certificate_bytes
            + writers * plist_entry
        )

    # -- signature counts --------------------------------------------------------

    def write_signatures_per_replica(self) -> dict[str, int]:
        """Public-key signatures a replica performs for one write (§3.3.2)."""
        return {"foreground": 1, "background_eligible": 1}

    def write_signatures_client(self) -> int:
        """Client signatures per write: PREPARE and WRITE requests."""
        return sum(phase.client_signs for phase in Variant.BASE.protocol.write)

    def write_signature_ops(self, variant: str = "base") -> int:
        """Signature *creations* for one steady-state write, both sides.

        Base and optimized: ``2 + 3n`` (two client requests, three signed
        replies per replica).  Strong: ``2 + 4n``, each READ-TS reply adding
        a timestamp vouch (§7).  Fastpath: *zero*; its lazy FAST-VOUCH
        signatures are off the write path
        (:attr:`~repro.core.replica.ReplicaStats.vouch_signs`).
        """
        n = self.quorums.n
        return sum(phase.signs(n) for phase in Variant.coerce(variant).protocol.write)

    def fast_write_macs_computed(self) -> int:
        """MAC computations for one fastpath write, both sides.

        The client MACs two fan-outs (``2n``); each replica answers both
        rounds with an ack row and an envelope (``n + 1`` each):
        ``2n(n + 2)``.  MAC *checks* depend on delivery timing (stragglers
        are never verified), so only computations are closed-form.
        """
        n = self.quorums.n
        return sum(phase.macs(n) for phase in Variant.FASTPATH.protocol.write)

    # -- verification counts ------------------------------------------------

    def write_verify_calls(self) -> int:
        """Backend verifications per steady-state base write, one shared
        certificate memo.

        Each message is verified by the handler that uses it.  The client
        verifies the ``q`` replies each of its three rounds waits for, and
        all ``n`` replicas verify each signed request (PREPARE and WRITE).
        The replies of each signed round become a certificate that a later
        message carries; the first role to validate it verifies its ``q``
        signatures and the shared memo answers every other.  ``5q + 2n`` in
        total.
        """
        q, n = self.quorums.quorum_size, self.quorums.n
        return sum(
            q * phase.replica_signs + (n + q) * phase.client_signs
            for phase in Variant.BASE.protocol.write
        )

    # -- durability counts (write-ahead logging, E16) -------------------------

    def write_log_records(self, variant: str = "base") -> int:
        """WAL records one replica appends for one steady-state write: 6,
        and 8 on the fast path (the commitment record and its GC)."""
        write = Variant.coerce(variant).protocol.write
        return sum(phase.wal_records for phase in write)

    def fsyncs_per_write(self, *, fsync: str = "always") -> int:
        """WAL barriers per write per replica under the given policy.

        Group commit spends one barrier per handled message that logged
        anything: in every variant the one that prepares and the one that
        installs.  Exact with one frame per message; a host handling several
        under one scope pays fewer.  (A ``strong`` replica's first READ-TS
        logs its genesis vouch once in its lifetime, not per write.)
        """
        if fsync == "never":
            return 0
        return sum(1 for phase in Variant.BASE.protocol.write if phase.wal_records)

    # -- reconfiguration counts (repro.shard, E19 companion) ------------------

    def reconfigure_messages(self) -> int:
        """Messages for one replace-one-member epoch change, reliable net.

        Sign round: ``CFG-SIGN-REQ`` to every old member except the one
        being removed and a ``CFG-SIGN-REPLY`` from each — ``2(n-1)``.
        Install round: ``EPOCH-INSTALL`` to the old ∪ new member union
        (``n+1`` nodes for a one-for-one swap) and an ``EPOCH-ACK`` from
        each — ``2(n+1)``.  Total ``4n``, independent of f beyond n=3f+1.
        """
        n = self.quorums.n
        return 2 * (n - 1) + 2 * (n + 1)

    def reconfigure_signatures(self) -> int:
        """Endorsement signatures produced for one epoch change.

        Every reachable old member (``n-1``) signs the successor statement
        once; the directory entry then carries a quorum's worth
        (:meth:`reconfigure_entry_signatures`) of them.
        """
        return self.quorums.n - 1

    def reconfigure_entry_signatures(self) -> int:
        """Signatures a directory entry carries: a quorum of the old epoch."""
        return self.quorums.quorum_size

    def state_transfer_messages(self) -> int:
        """Messages for one joining replica's bootstrap, reliable net.

        One ``XFER-REQ`` to each of the n previous members and one
        ``XFER-REPLY`` back — ``2n``.  The joiner only *needs* 2f+1
        replies, but on a reliable network every request lands and every
        member answers.
        """
        return 2 * self.quorums.n

    def directory_fetch_messages(self) -> int:
        """Messages for one stale client's refresh: ``DIR-REQ`` to all n
        members of the believed configuration plus n replies."""
        return 2 * self.quorums.n

    def repair_messages(self) -> int:
        """Messages for one quarantined replica's rebuild, reliable net.

        One ``REPAIR-REQ`` to each of its ``n - 1`` peers and one
        ``REPAIR-REPLY`` back — ``2(n - 1)``: the same shape as a joining
        replica's bootstrap (:meth:`state_transfer_messages`) minus the
        request a joiner would address to the slot it is filling.
        Completion needs only ``2f + 1`` replies, but on a reliable
        network every peer answers one pull.
        """
        return 2 * (self.quorums.n - 1)

    def repair_verifications(self) -> int:
        """Certificate verifications one repair performs, steady state.

        Every collected candidate's embedded prepare certificate is
        re-validated (``q`` signatures each), but identical candidates
        from different peers collapse in the verification memo — with all
        correct peers agreeing, that is one certificate: ``q`` checks.
        """
        return self.quorums.quorum_size

    # -- open-loop capacity (E21) ------------------------------------------

    def request_frames_per_replica(
        self, variant: str = "base", *, write_fraction: float = 1.0
    ) -> float:
        """Request frames each replica serves per operation, normal case.

        Every phase of an operation is one client request fan-out, and each
        replica processes exactly one inbound frame per phase (replies are
        sends, not served work).  A write costs the variant's normal-case
        phase count; a read costs its single phase-1 request.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction {write_fraction} out of range")
        write_frames = len(Variant.coerce(variant).protocol.write)
        read_frames = READ_PHASES[0]
        return write_fraction * write_frames + (1.0 - write_fraction) * read_frames

    def open_loop_capacity(
        self,
        service_delay: float,
        variant: str = "base",
        *,
        write_fraction: float = 1.0,
    ) -> float:
        """Saturation throughput (ops/s) of an open-loop arrival stream.

        Each replica is a single-server queue spending ``service_delay``
        per inbound request frame, and every replica sees every frame (the
        client broadcasts each phase), so the group saturates together at

            capacity = 1 / (frames_per_op_per_replica × service_delay).

        Offered load above this diverges (queues grow without bound — the
        open-loop meltdown the E21 curve shows); below it, throughput
        tracks the offered rate.
        """
        if service_delay <= 0:
            return float("inf")
        frames = self.request_frames_per_replica(
            variant, write_fraction=write_fraction
        )
        return 1.0 / (frames * service_delay)
