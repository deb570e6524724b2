"""Closed-form cost model of §3.3, used to cross-check measured numbers.

§3.3.1: an operation is O(|Q|) messages and O(|Q|^2) total bytes (some
messages carry certificates of size O(|Q|)); replica state is O(|C|) prepare
list entries plus an O(|Q|) certificate.  §3.3.2: each write costs two
public-key signatures per replica (phase-2 and phase-3 replies), and the
phase-3 signature can be produced in the background.

The model's absolute byte numbers are parameterised by measured constants
(signature size, value size) so experiments fit only the *shape*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quorum import QuorumSystem

__all__ = ["CostModel", "WRITE_PHASES", "READ_PHASES"]

#: Phases per operation by variant (normal case / worst case).  The
#: fastpath worst case is the verified fallback: two fast phases spent
#: before demotion never count (the client abandons them), but the signed
#: protocol it demotes to is a full 4-phase READ-TS / PREPARE / WRITE run
#: preceded by the failed FAST-PREP round.
WRITE_PHASES = {
    "base": (3, 3),
    "optimized": (2, 3),
    "strong": (3, 5),
    "fastpath": (2, 4),
}
READ_PHASES = (1, 2)


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

    # -- message counts (reliable network, no retransmissions) -----------------

    def write_messages(self, variant: str = "base") -> int:
        """Messages for one write: one RPC (request+reply to all n) per phase."""
        phases = WRITE_PHASES[variant][0]
        return 2 * phases * self.quorums.n

    def read_messages(self, *, write_back: bool = False) -> int:
        messages = 2 * self.quorums.n
        if write_back:
            # Write-back goes only to replicas that are behind; bound by n.
            messages += 2 * self.quorums.n
        return messages

    # -- byte counts -----------------------------------------------------------

    def write_bytes(self, variant: str = "base") -> int:
        """Total bytes for one write; certificate-bearing messages dominate.

        Phase-1 replies, the phase-2 request, and the phase-3 request all
        carry certificates, each O(|Q|), to O(|Q|) replicas: O(|Q|^2) total.
        """
        n = self.quorums.n
        cert = self.certificate_bytes
        hdr = self.header_bytes
        if variant == "fastpath":
            # The fast path trades signatures for MAC vectors: requests
            # carry an n-entry MAC row, replies an ack row + envelope, and
            # the FAST-WRITE ships the proof of writing — commitment,
            # opening, and >= 2f+1 ack rows of n MACs each, O(|Q|^2) bytes
            # (vs. the signed certificate's O(|Q|)).  Bigger frames, zero
            # signatures: E20 measures the trade.
            mac_row = n * 32
            proof = 64 + n * mac_row
            return (
                n * (cert + mac_row + hdr)  # FAST-PREP: prev Wcert + MACs
                + n * (mac_row + 32 + hdr)  # replies: ack row + envelope
                + n * (proof + self.value_bytes + mac_row + hdr)  # FAST-WRITE
                + n * (mac_row + 32 + hdr)  # write replies
            )
        if variant == "optimized":
            # READ-TS-PREP req/replies (replies carry certificate), then
            # WRITE request with certificate + value, and small replies.
            return (
                n * hdr  # merged phase-1 requests
                + n * (cert + hdr)  # replies with stored certificate
                + n * (cert + self.value_bytes + hdr)  # phase-3 requests
                + n * hdr  # write replies
            )
        return (
            n * hdr  # READ-TS requests
            + n * (cert + hdr)  # READ-TS replies with certificate
            + n * (cert + hdr)  # PREPARE requests carry Pmax (+ Wcert)
            + n * hdr  # PREPARE replies
            + n * (cert + self.value_bytes + hdr)  # WRITE requests
            + n * hdr  # WRITE replies
        )

    def read_bytes(self, *, write_back: bool = False) -> int:
        n = self.quorums.n
        total = n * self.header_bytes + n * (
            self.certificate_bytes + self.value_bytes + self.header_bytes
        )
        if write_back:
            total += n * (
                self.certificate_bytes + self.value_bytes + self.header_bytes
            ) + n * self.header_bytes
        return total

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
        return 2

    def write_signature_ops(self, variant: str = "base") -> int:
        """Total public-key signature *creations* for one write, both sides,
        steady state on a reliable network.

        Base and optimized: the client signs its two mutating requests
        (PREPARE + WRITE, or the merged READ-TS-PREP + WRITE) and every
        replica signs three replies — the phase-1 envelope (base READ-TS
        reply; optimized envelope + embedded prep signature count as two of
        the three), the prepare acknowledgement, and the write
        acknowledgement — ``2 + 3n`` in total.

        Fastpath: the common case carries commitments and MAC vectors only;
        *zero* signatures, which the E20 benchmark asserts exactly.  (Lazy
        FAST-VOUCH signatures for certificate transfer are produced off the
        write path and accounted separately in
        :attr:`~repro.core.replica.ReplicaStats.vouch_signs`.)
        """
        if variant == "fastpath":
            return 0
        return 2 + 3 * self.quorums.n

    def fast_write_macs_computed(self) -> int:
        """MAC computations for one fastpath write, both sides.

        The client MACs its two request fan-outs for every replica
        (``2n``); each replica answers both rounds with an ``n``-entry
        acknowledgement row plus one reply envelope (``n + 1`` each, and
        every replica computes its full reply even when the client already
        has its quorum): ``2n + 2n(n + 1) = 2n(n + 2)``.

        MAC *checks* are not closed-form: stragglers whose replies arrive
        after the client's quorum completes are never verified, so the
        check count depends on delivery timing.  The computation count is
        deterministic and is what the tests pin against
        :attr:`~repro.crypto.authenticators.MacAuthenticator.macs_computed`.
        """
        n = self.quorums.n
        return 2 * n * (n + 2)

    # -- verification counts ------------------------------------------------

    def write_verifications_uncached(self) -> int:
        """Backend signature verifications per base write, no memoization.

        Counting both sides on a reliable network (no retransmissions):

        * client, phase 1: n reply envelopes + n certificates of |Q| sigs;
        * replicas, phase 2: n client signatures + n prev certificates;
        * client, phase 2: n PREPARE-REPLY signatures;
        * replicas, phase 3: n client signatures + n prepare certificates;
        * client, phase 3: n WRITE-REPLY signatures.
        """
        n = self.quorums.n
        q = self.quorums.quorum_size
        client = n * (1 + q) + n + n
        replicas = n * (1 + q) + n * (1 + q)
        return client + replicas

    def write_verifications_cached(self) -> int:
        """Backend verifications per base write through the memo (steady state).

        Each *distinct* (statement, signer, signature) triple costs one
        backend call; every repeat — the same certificate revalidated at
        another replica or role, every retransmission — is a memo hit.  Per
        write the distinct triples are: n phase-1 reply envelopes, the |Q|
        signatures inside the (shared) prev certificate, the client's two
        request signatures, n PREPARE-REPLY and n WRITE-REPLY signatures.

        Note this counts the whole deployment sharing one verifier (the
        in-process simulator); with per-node verifiers each node pays for
        its own distinct triples but still never re-verifies a repeat.
        """
        n = self.quorums.n
        q = self.quorums.quorum_size
        return n + q + 2 + n + n

    def verification_speedup(self) -> float:
        """Uncached / cached backend-verification ratio for one base write."""
        return self.write_verifications_uncached() / self.write_verifications_cached()

    # -- verification passes (batch prevalidation, E22) -----------------------

    def write_verify_calls_unbatched(self) -> int:
        """Verification *passes* per base write without batch prevalidation.

        A pass (:attr:`~repro.core.verification.VerificationStats.verify_calls`)
        is one trip into the verifier that performs non-memoized backend
        work, however many signatures it covers.  Handling messages one at
        a time, the client pays one pass per reply it examines before its
        quorum completes — ``q`` per round, three rounds — and the replicas
        pay one pass per signed request round (PREPARE and WRITE): the
        first replica reaches the backend, the shared memo absorbs the
        other ``n - 1`` and every certificate the client already validated.
        ``3q + 2`` in total.
        """
        return 3 * self.quorums.quorum_size + 2

    def write_verify_calls_batched(self, in_flight: int = 1) -> float:
        """Verification passes per write with batch prevalidation.

        :meth:`~repro.core.verification.Verifier.verify_batch` collapses a
        whole batch of signatures into one amortized pass, so each reply
        round costs the client a single pass regardless of quorum size
        (three passes) and the two signed request rounds cost one
        prevalidation pass each at the first replica (the memo again
        absorbs the rest).  With ``in_flight`` concurrent writes coalesced
        onto shared frames, same-round messages share each pass, dividing
        the per-write cost: ``(3 + 2) / in_flight``.
        """
        if in_flight < 1:
            raise ValueError(f"in_flight {in_flight} must be >= 1")
        return (3 + 2) / in_flight

    def batch_verify_reduction(self, in_flight: int = 1) -> float:
        """Unbatched / batched verification-pass ratio for one base write.

        ``(3q + 2) · in_flight / 5`` — 2.2x for f=1 with a single write in
        flight, which is the floor the E22 benchmark asserts (>= 2x), and
        growing linearly with pipeline depth.
        """
        return self.write_verify_calls_unbatched() / self.write_verify_calls_batched(
            in_flight
        )

    # -- encode counts (wire fast path) --------------------------------------

    def write_encode_calls_uncached(self) -> int:
        """Canonical wire encodes per base write with no encode-once cache.

        Every frame is serialised at the sender: 3 request fan-outs of n
        frames each, plus n replies per phase — ``2 * 3 * n`` total.
        """
        return 2 * 3 * self.quorums.n

    def write_encode_calls_cached(self) -> int:
        """Wire encodes per base write with the encode-once cache.

        Each request round is one message *instance* fanned out to n
        replicas: the first send encodes, the remaining ``n - 1`` (and all
        retransmissions) reuse the cached bytes.  Replies are distinct
        per-replica instances and still cost one encode each.
        """
        return 3 * 1 + 3 * self.quorums.n

    def encode_speedup(self) -> float:
        """Uncached / cached wire-encode ratio for one base write.

        ``2n / (1 + n)`` — approaches 2x from below as n grows, and the
        measured ratio is higher still because statement interning also
        removes the per-signature re-encodes this model does not count.
        """
        return self.write_encode_calls_uncached() / self.write_encode_calls_cached()

    # -- durability counts (write-ahead logging, E16) -------------------------

    def write_log_records(self, variant: str = "base") -> int:
        """WAL records one replica appends for one write, steady state.

        Per write: an ``spr`` signing-log entry and a ``plist-set`` at
        prepare time, the ``install`` and ``swr`` at write time, plus — once
        the *next* write's certificate arrives — a ``write-ts`` advance and
        the ``plist-del`` GC of the entry the certificate subsumed.  The
        optimized fast path logs the same set (optlist instead of plist on
        the contention-free path).  The fastpath variant adds the
        ``fastc-set`` commitment record at FAST-PREP time and its
        ``fastc-del`` GC: 8 records.
        """
        if variant == "fastpath":
            return 8
        return 6

    def write_log_bytes(self, variant: str = "base") -> int:
        """WAL bytes per write per replica; the install record dominates.

        The install record carries the value and a full certificate —
        O(|Q|) — while the other five records are O(1) timestamps, hashes
        and ids (~``header_bytes`` each framed).
        """
        small = self.header_bytes
        install = self.certificate_bytes + self.value_bytes + self.header_bytes
        return (self.write_log_records(variant) - 1) * small + install

    def fsyncs_per_write(self, *, fsync: str = "always") -> int:
        """WAL barriers per write per replica under the given policy.

        Group commit spends one barrier per handled message that logged
        anything, not one per record.  In every variant exactly two of a
        write's messages log: the one that prepares (PREPARE, READ-TS-PREP
        or FAST-PREP — ``spr`` and the list entry, plus the previous
        write's ``write-ts`` advance and GC riding on its certificate) and
        the WRITE that installs (``install`` and ``swr``); READ-TS logs
        nothing.  Exact on a reliable network with one frame per message;
        a host that handles several logging messages of one socket read or
        batch under one scope pays fewer.  (A ``strong`` replica's first
        READ-TS vouches for the genesis timestamp and logs that ``swr``
        once in its lifetime — a one-off, not a per-write cost.)
        """
        if fsync == "never":
            return 0
        return 2

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

    def reconfigure_verifications(self) -> int:
        """Backend signature verifications for one epoch change.

        The reconfigurator verifies each endorsement until it has a quorum
        (``q``) and validates its own entry at install (``q``); each of the
        ``n+1`` old ∪ new members validates the entry once on install
        (``q`` each).  Entry validation calls the scheme directly — these
        are *statement* signatures, not certificates, so the certificate
        memo never absorbs them: ``q(n+3)`` total.
        """
        q = self.quorums.quorum_size
        return q * (self.quorums.n + 3)

    def reconfigure_bytes(self) -> int:
        """Total bytes for one epoch change; install frames dominate.

        Sign requests/replies are O(1) (a member list and one signature);
        each install request carries the full entry — a quorum of
        signatures, O(|Q|) — to ``n+1`` nodes: O(|Q|^2) overall, the same
        asymptotic shape as a write.
        """
        n = self.quorums.n
        hdr = self.header_bytes
        entry = self.certificate_bytes + hdr  # config + quorum of sigs
        return (
            (n - 1) * hdr  # sign requests (config statement)
            + (n - 1) * (self.signature_bytes + hdr)  # sign replies
            + (n + 1) * (entry + hdr)  # install requests carry the entry
            + (n + 1) * hdr  # acks
        )

    def state_transfer_messages(self) -> int:
        """Messages for one joining replica's bootstrap, reliable net.

        One ``XFER-REQ`` to each of the n previous members and one
        ``XFER-REPLY`` back — ``2n``.  The joiner only *needs* 2f+1
        replies, but on a reliable network every request lands and every
        member answers.
        """
        return 2 * self.quorums.n

    def state_transfer_bytes(self, objects: int) -> int:
        """Bytes for one bootstrap carrying ``objects`` object snapshots.

        Each reply ships, per object, the durable state (value, prepare
        certificate, timestamps — O(|Q|)) plus a 32-byte fingerprint; all
        n members send the full set, so the transfer is ``O(n · objects ·
        |Q|)`` and the 2f+1-of-n validation overlap is pure redundancy
        bought for Byzantine tolerance.
        """
        n = self.quorums.n
        snapshot = self.certificate_bytes + self.value_bytes + self.header_bytes
        return n * self.header_bytes + n * objects * (snapshot + 32)

    def state_transfer_verifications(self, objects: int) -> int:
        """Certificate verifications a joining replica performs.

        Per object it validates every distinct candidate's embedded
        prepare certificate (``q`` signatures each) — but the certificate
        memo collapses identical candidates from different members, so the
        steady-state cost is one certificate per object: ``objects · q``.
        """
        return objects * self.quorums.quorum_size

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

    # -- frame counts (cross-object batching) --------------------------------

    def workload_frames_unbatched(self, objects: int, phases: int = 3) -> int:
        """Wire frames for one write per object, no batching.

        Each object's write is ``phases`` request fan-outs and ``phases``
        reply fan-ins of n frames each.
        """
        return objects * 2 * phases * self.quorums.n

    def workload_frames_batched(
        self, objects: int, in_flight: int, phases: int = 3
    ) -> int:
        """Wire frames with ``in_flight`` concurrent objects coalesced.

        Concurrent same-round requests to a replica merge into one frame
        (and the replica's replies merge symmetrically), so each group of
        ``in_flight`` objects shares its frames.
        """
        groups = -(-objects // in_flight)  # ceil
        return groups * 2 * phases * self.quorums.n

    def batching_frame_reduction(self, objects: int, in_flight: int) -> float:
        """Unbatched / batched frame ratio; ``in_flight`` in the ideal case."""
        return self.workload_frames_unbatched(objects) / self.workload_frames_batched(
            objects, in_flight
        )

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
        write_frames = WRITE_PHASES[variant][0]
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

    def open_loop_utilization(
        self,
        offered_rate: float,
        service_delay: float,
        variant: str = "base",
        *,
        write_fraction: float = 1.0,
    ) -> float:
        """Replica utilisation ρ at the offered rate (ρ ≥ 1 ⇒ unstable)."""
        capacity = self.open_loop_capacity(
            service_delay, variant, write_fraction=write_fraction
        )
        if capacity == float("inf"):
            return 0.0
        return offered_rate / capacity
