"""Fast-path replica: signature-free writes via proofs of writing.

:class:`FastBftBcReplica` extends the §6 optimized replica with a two-round
MAC-only write protocol in the style of PoWerStore (arXiv 1212.3555),
adapted to BFT-BC's multi-writer, Byzantine-client setting:

* **FAST-PREP** — the client sends the value hash plus a fresh hash
  commitment; the replica predicts ``succ(pcert.ts, client)`` exactly like
  the §6 merged phase, records the proposal in the *same* ``optlist`` (so
  Lemma 1's at-most-two-prepared-timestamps bound is unchanged) plus a
  durable ``fastc`` commitment entry, and answers with a **MAC row** — one
  MAC per replica over the acknowledged ``(ts, h, C)`` statement — instead
  of a signature.
* **FAST-WRITE** — the client reveals the commitment's opening and presents
  a quorum of rows (:class:`~repro.crypto.commitments.ProofOfWriting`).
  Each replica checks *its own column* of the rows; a quorum of valid MACs
  to itself proves a quorum acknowledged the prepare, so it installs the
  value under a ``proof``-evidence certificate and acks with another row.

No digital signature is computed or verified anywhere on this path.  The
price is transferability: a Byzantine acker can craft a row that validates
for one receiver and not another, so proof evidence convinces only the
replica that checked it.  Every point where fast evidence must convince a
third party — phase-1 replies during fallback or reads — is bridged by
**vouches**: a replica whose stored certificate carries proof evidence
lazily signs ``<FAST-VOUCH, ts, h>`` (off the write path, cached), and
``f+1`` such signatures form a transferable ``vouch``-evidence certificate
(at least one signer is correct and only vouches for writes it verified).

Safety is otherwise the base protocol's: the fast prepare performs the same
conflict checks as the §6 opt-prepare against *both* prepare lists, the
``fastc`` map additionally pins the commitment so a recovered replica never
acks two different commitments for one predicted timestamp, and the signing
logs record MAC-acknowledged statements exactly as they record signed ones,
so the executable Lemma 1 invariants keep watching the fast path.
"""

from __future__ import annotations

from typing import Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    FastPrepReply,
    FastPrepRequest,
    FastWriteReply,
    FastWriteRequest,
    Message,
)
from repro.core.persistence import FastCommitment, PlistEntry
from repro.core.replica import OptimizedBftBcReplica
from repro.core.statements import (
    fast_prep_ack_statement,
    fast_prep_reply_statement,
    fast_prep_request_statement,
    fast_vouch_statement,
    fast_write_ack_statement,
    fast_write_reply_statement,
    fast_write_request_statement,
    statement_bytes,
)
from repro.core.timestamp import Timestamp
from repro.crypto.commitments import make_mac_row, row_mac_for
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature
from repro.obs.instrumentation import Instrumentation
from repro.storage import ReplicaStore

__all__ = ["FastBftBcReplica"]


class FastBftBcReplica(OptimizedBftBcReplica):
    """Replica speaking the signature-free fast path (plus all signed paths).

    The signed handlers are fully inherited — a fast cluster degrades to the
    plain optimized protocol whenever clients fall back — and the
    certificate-acceptance hooks are widened so certificates carrying proof
    evidence are accepted *iff* this replica's own MAC column checks out.
    """

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        store: Optional[ReplicaStore] = None,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(node_id, config, store, instrumentation=instrumentation)
        self._state.open("fastc")
        self._auth = config.authenticator
        self._replica_ids = tuple(config.quorums.replica_ids)
        # Volatile caches: positive own-column verdicts (content-addressed,
        # so stale entries are impossible; keyed to the certificate's ts so
        # write-ts GC can prune them) and lazily signed vouches.
        self._proof_ok: dict[bytes, Timestamp] = {}
        self._pvouch_cache: dict[tuple[Timestamp, bytes], Signature] = {}

    @property
    def fastc(self):
        """Durable ``client -> (ts, h, C)`` fast-prepare commitments."""
        return self._state.fastc

    def recover(self) -> None:
        super().recover()
        self._proof_ok.clear()
        self._pvouch_cache.clear()

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, sender: str, message: Message) -> Optional[Message]:
        if isinstance(message, (FastPrepRequest, FastWriteRequest)):
            self.stats.handled[message.KIND] += 1
            if isinstance(message, FastPrepRequest):
                reply: Optional[Message] = self._handle_fast_prep(message)
            else:
                reply = self._handle_fast_write(message)
            if reply is not None:
                self.stats.replies += 1
            return reply
        return super()._dispatch(sender, message)

    # -- helpers -----------------------------------------------------------

    def _fast_client_ok(self, client: str) -> bool:
        """The ACL half of ``_client_request_ok`` (there is no signature)."""
        if not self.config.is_authorized_writer(client):
            self.stats.discard("unauthorized")
            return False
        if self.config.strict_stop and self.config.registry.is_revoked(client):
            self.stats.discard("revoked")
            return False
        return True

    def _request_mac_ok(
        self, client: str, macs: tuple[tuple[str, bytes], ...], message: bytes
    ) -> bool:
        """Check the MAC addressed to this replica in a client's vector.

        Keys are looked up by the request's *embedded* client identity, so a
        replayed request authenticates as its original author — mirroring
        how a replayed signed request verifies under the original signer.
        """
        mac = row_mac_for(macs, self.node_id)
        if mac is None or not self._auth.check(
            client, self.node_id, message, mac
        ):
            self.stats.discard("bad-mac")
            return False
        return True

    def _count_own_column(
        self,
        rows: tuple[tuple[str, tuple[tuple[str, bytes], ...]], ...],
        message: bytes,
    ) -> int:
        """Distinct replica ackers with a valid MAC to *this* replica."""
        replicas = set(self._replica_ids)
        valid = 0
        seen: set[str] = set()
        for acker, row in rows:
            if acker in seen or acker not in replicas:
                continue
            seen.add(acker)
            mac = row_mac_for(row, self.node_id)
            if mac is not None and self._auth.check(
                acker, self.node_id, message, mac
            ):
                valid += 1
        return valid

    # -- widened certificate acceptance ------------------------------------

    def _certificate_valid(self, cert: PrepareCertificate) -> bool:
        """Accept proof evidence by checking this replica's own MAC column.

        Quorum and vouch evidence still go through the shared verifier.  The
        positive verdict is memoized by content hash — MAC checks are cheap,
        but retransmissions re-present identical certificates.
        """
        if cert.evidence != "proof":
            return super()._certificate_valid(cert)
        proof = cert.proof
        if proof is None or not proof.opens():
            return False
        key = hash_value(("pcert", cert.to_wire()))
        if key in self._proof_ok:
            return True
        ack = statement_bytes(
            fast_prep_ack_statement(
                cert.ts.to_wire(), cert.value_hash, proof.commitment
            )
        )
        if self._count_own_column(proof.rows, ack) < self.config.quorum_size:
            return False
        self._proof_ok[key] = cert.ts
        return True

    def _write_certificate_valid(self, wcert: WriteCertificate) -> bool:
        if wcert.evidence != "proof":
            return super()._write_certificate_valid(wcert)
        key = hash_value(("wcert", wcert.to_wire()))
        if key in self._proof_ok:
            return True
        ack = statement_bytes(fast_write_ack_statement(wcert.ts.to_wire()))
        if self._count_own_column(wcert.rows, ack) < self.config.quorum_size:
            return False
        self._proof_ok[key] = wcert.ts
        return True

    # -- vouching ----------------------------------------------------------

    def _pvouch(self) -> Optional[Signature]:
        """Sign ``<FAST-VOUCH, ts, h>`` for a proof-evidence ``pcert``.

        This is the one signature the fast path ever needs, and it is lazy:
        computed only when a phase-1 read actually asks while the stored
        certificate is non-transferable, then cached.  Counted separately
        from foreground signs so E20's write-path accounting stays exact.
        """
        if self.pcert.evidence != "proof":
            return None
        key = (self.pcert.ts, self.pcert.value_hash)
        cached = self._pvouch_cache.get(key)
        if cached is not None:
            return cached
        signature = self.config.scheme.sign_statement(
            self.node_id,
            fast_vouch_statement(self.pcert.ts.to_wire(), self.pcert.value_hash),
        )
        self.stats.vouch_signs += 1
        self._pvouch_cache[key] = signature
        return signature

    # -- fast phase 1: FAST-PREP -------------------------------------------

    def _handle_fast_prep(
        self, message: FastPrepRequest
    ) -> Optional[FastPrepReply]:
        client = message.client
        if not self._fast_client_ok(client):
            return None
        request = statement_bytes(
            fast_prep_request_statement(
                client,
                message.value_hash,
                message.commitment,
                None
                if message.write_cert is None
                else message.write_cert.to_wire(),
                message.nonce,
            )
        )
        if not self._request_mac_ok(client, message.macs, request):
            return None
        if not self._apply_write_certificate(message.write_cert):
            return None
        predicted = self.pcert.ts.succ(client)
        prepared_ts: Optional[Timestamp] = None
        row: tuple[tuple[str, bytes], ...] = ()
        if self._may_fast_ack(
            client, predicted, message.value_hash, message.commitment
        ):
            if client not in self.optlist:
                self.optlist[client] = PlistEntry(
                    ts=predicted, value_hash=message.value_hash
                )
            entry = self.fastc.get(client)
            if entry is None or entry.ts != predicted:
                self.fastc[client] = FastCommitment(
                    ts=predicted,
                    value_hash=message.value_hash,
                    commitment=message.commitment,
                )
            # A MAC-acknowledged prepare counts against Lemma 1 exactly
            # like a signed one.
            self.signed_prepare_replies.add(
                (predicted, message.value_hash, client)
            )
            prepared_ts = predicted
            row = make_mac_row(
                self._auth,
                self.node_id,
                self._replica_ids,
                statement_bytes(
                    fast_prep_ack_statement(
                        predicted.to_wire(),
                        message.value_hash,
                        message.commitment,
                    )
                ),
            )
        envelope = self._auth.mac(
            self.node_id,
            client,
            statement_bytes(
                fast_prep_reply_statement(
                    self.node_id,
                    client,
                    None if prepared_ts is None else prepared_ts.to_wire(),
                    message.value_hash,
                    message.commitment,
                    message.nonce,
                )
            ),
        )
        return FastPrepReply(
            replica=self.node_id,
            prepared_ts=prepared_ts,
            row=row,
            nonce=message.nonce,
            mac=envelope,
        )

    def _may_fast_ack(
        self, client: str, predicted: Timestamp, value_hash: bytes, commitment: bytes
    ) -> bool:
        """The §6.2 opt-prepare rule plus commitment pinning.

        ``fastc`` refuses a *second commitment* for an already-acked
        predicted timestamp even when ``(ts, h)`` match: one fast prepare,
        one commitment — so a client cannot stockpile alternative proofs
        for the same slot.
        """
        if not self._may_opt_prepare(client, predicted, value_hash):
            return False
        entry = self.fastc.get(client)
        if entry is not None and entry.ts == predicted and (
            entry.value_hash != value_hash or entry.commitment != commitment
        ):
            return False
        return True

    # -- fast phase 2: FAST-WRITE ------------------------------------------

    def _handle_fast_write(
        self, message: FastWriteRequest
    ) -> Optional[FastWriteReply]:
        client = message.client
        if not self._fast_client_ok(client):
            return None
        value_hash = hash_value(message.value)
        request = statement_bytes(
            fast_write_request_statement(
                client,
                message.ts.to_wire(),
                value_hash,
                message.proof.commitment,
                message.nonce,
            )
        )
        if not self._request_mac_ok(client, message.macs, request):
            return None
        if not message.proof.opens():
            self.stats.discard("bad-opening")
            return None
        cert = PrepareCertificate(
            ts=message.ts,
            value_hash=value_hash,
            signatures=(),
            evidence="proof",
            proof=message.proof,
        )
        if not self._certificate_valid(cert):
            self.stats.discard("bad-proof")
            return None
        if self._should_install(cert):
            self._state.install(message.value, cert)
            self.stats.writes_installed += 1
        # The MAC-acknowledged write, logged for Lemma 1 like a signed one.
        self.signed_write_replies.add(message.ts)
        row = make_mac_row(
            self._auth,
            self.node_id,
            self._replica_ids,
            statement_bytes(fast_write_ack_statement(message.ts.to_wire())),
        )
        envelope = self._auth.mac(
            self.node_id,
            client,
            statement_bytes(
                fast_write_reply_statement(
                    self.node_id, client, message.ts.to_wire(), message.nonce
                )
            ),
        )
        return FastWriteReply(
            replica=self.node_id,
            ts=message.ts,
            row=row,
            nonce=message.nonce,
            mac=envelope,
        )

    # -- housekeeping ------------------------------------------------------

    def _gc_prepare_lists(self) -> None:
        super()._gc_prepare_lists()
        self.fastc.gc_stale(self.write_ts)
        # Only positive verdicts are memoized, so forgetting one for a
        # certificate older than write_ts costs at most a re-check.
        cutoff = self.write_ts
        self._proof_ok = {
            key: ts for key, ts in self._proof_ok.items() if ts >= cutoff
        }
