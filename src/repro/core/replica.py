"""BFT-BC replica state machines (Figure 2, §6.2, §7.2).

Replicas are sans-I/O: :meth:`BftBcReplica.handle` consumes one decoded
request and returns the reply message (or ``None`` — per the paper, invalid
requests are discarded *silently*, with the reason recorded in
:class:`ReplicaStats` for observability).

The same class runs on the deterministic simulator and on the asyncio TCP
transport.

State per Figure 2:

* ``data`` — the value of the object,
* ``pcert`` — a valid prepare certificate for ``h(data)``,
* ``plist`` — at most one proposed write ``(t, h)`` per client,
* ``write_ts`` — the timestamp of the latest write known to have completed
  at a quorum.

All of it lives behind a :class:`~repro.core.persistence.DurableReplicaState`
backed by a pluggable :class:`~repro.storage.ReplicaStore`: every mutation is
write-ahead logged before the corresponding reply can leave the replica, and
:meth:`BftBcReplica.recover` rebuilds the state from snapshot + log after a
crash.  The default :class:`~repro.storage.MemoryStore` preserves the old
zero-copy in-memory behaviour; :class:`~repro.storage.FileLogStore` makes
the replica durable.

:class:`OptimizedBftBcReplica` (§6) adds the second prepare list
(``optlist``), performs prepares on the client's behalf in the merged
phase-1/2, and breaks equal-timestamp ties in phase 3 by larger value hash.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.core.certificates import PrepareCertificate, WriteCertificate
from repro.core.config import SystemConfig
from repro.core.messages import (
    Message,
    PrepareReply,
    PrepareRequest,
    ReadReply,
    ReadRequest,
    ReadTsPrepReply,
    ReadTsPrepRequest,
    ReadTsReply,
    ReadTsRequest,
    RepairReply,
    RepairRequest,
    WriteReply,
    WriteRequest,
)
from repro.core.persistence import DurableReplicaState, PlistEntry
from repro.core.phases import Send
from repro.core.repair import StateRepair
from repro.core.statements import (
    prepare_reply_statement,
    prepare_request_statement,
    read_reply_statement,
    read_ts_prep_reply_statement,
    read_ts_prep_request_statement,
    read_ts_reply_statement,
    write_reply_statement,
    write_request_statement,
)
from repro.core.timestamp import Timestamp
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import Signature
from repro.obs.instrumentation import NULL_INSTRUMENTATION, Instrumentation
from repro.storage import ReplicaStore

__all__ = ["PlistEntry", "ReplicaStats", "BftBcReplica", "OptimizedBftBcReplica"]


@dataclass
class ReplicaStats:
    """Counters exposed for tests and the benchmark harness."""

    handled: Counter = field(default_factory=Counter)
    discards: Counter = field(default_factory=Counter)
    replies: int = 0
    foreground_signs: int = 0
    background_signs: int = 0
    vouch_signs: int = 0
    writes_installed: int = 0
    quarantines: int = 0
    quarantine_reasons: Counter = field(default_factory=Counter)
    repairs: int = 0
    self_audits: int = 0

    def discard(self, reason: str) -> None:
        self.discards[reason] += 1

    @property
    def total_discards(self) -> int:
        return sum(self.discards.values())


class BftBcReplica:
    """Base-protocol replica (Figure 2), plus the §7 strong-mode checks."""

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        store: Optional[ReplicaStore] = None,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        #: Observability handle; the disabled singleton keeps spans free.
        self.instrumentation = instrumentation or NULL_INSTRUMENTATION
        #: The verifier every handler uses — wrapped to time ``verify.*``
        #: sub-timings when instrumentation is enabled, the raw config
        #: verifier otherwise (identical object, zero overhead).
        self.verifier = self.instrumentation.wrap_verifier(config.verifier)
        #: All Figure-2 state, write-ahead logged through the store
        #: (wrapped for ``store.*`` sub-timings when instrumented).
        self._state = DurableReplicaState(
            self.instrumentation.wrap_store(store),
            budget=config.client_state_budget,
            gc_stale=config.gc_plist,
        )
        self.stats = ReplicaStats()
        # §3.3.2: WRITE-REPLY signatures pre-computed at prepare time.
        # Volatile by design — a recovered replica simply re-signs.
        self._presigned: dict[Timestamp, Signature] = {}
        #: True while this replica's state is known-bad: protocol requests
        #: are discarded (reason ``quarantined``) until repair completes.
        self.quarantined = False
        #: Sans-I/O quarantine-repair driver; transports move its Sends.
        #: Candidates are certificate-checked through this replica's own
        #: acceptance hook, so the fast variant's proof-evidence (own MAC
        #: column) certificates validate during repair too.  Both callbacks
        #: reach this replica weakly, so it is in no reference cycle.
        me = weakref.ref(self)
        self.repair = StateRepair(
            node_id,
            config,
            lambda snapshot: me()._install_repaired_state(snapshot),
            cert_check=lambda cert: me()._certificate_valid(cert),
        )

    # -- state access (all reads go through the durable state) -------------

    @property
    def store(self) -> ReplicaStore:
        """The backing store (``MemoryStore`` unless one was injected)."""
        return self._state.store

    @property
    def data(self):
        return self._state.data

    @property
    def pcert(self) -> PrepareCertificate:
        return self._state.pcert

    @property
    def write_ts(self) -> Timestamp:
        return self._state.write_ts

    @property
    def plist(self):
        """At most one proposed write ``(t, h)`` per client (logged map)."""
        return self._state.plist

    @property
    def client_state(self):
        """The per-client maps and their budget accounting (E21)."""
        return self._state.client_state

    @property
    def signed_write_replies(self):
        """Every WRITE-REPLY timestamp this replica ever signed (Lemma 1)."""
        return self._state.swr

    @property
    def signed_prepare_replies(self):
        """Every PREPARE-REPLY ``(ts, hash, client)`` ever signed (Lemma 1)."""
        return self._state.spr

    def recover(self) -> None:
        """Rebuild Figure-2 state from the store's snapshot + log.

        Idempotent, including under a torn final WAL record (the store
        truncates it).  The presigned-signature cache is volatile and is
        dropped; recovered replicas re-sign on demand.

        If the store had to quarantine corrupt bytes to produce its result
        (:attr:`~repro.storage.ReplicaStore.suspect`), the recovered state
        may trail writes this replica acknowledged — the replica enters
        quarantine and must :meth:`begin_repair` before serving.
        """
        self._state.recover()
        self._presigned.clear()
        if getattr(self.store, "suspect", False):
            self.enter_quarantine("corrupt-storage")

    def state_fingerprint(self, *, include_signing_logs: bool = False) -> bytes:
        """Digest of the durable state, for differential recovery tests."""
        return self._state.fingerprint(include_signing_logs=include_signing_logs)

    def replayed_fingerprint(self, *, include_signing_logs: bool = False) -> bytes:
        """Fingerprint of a scratch twin recovered from this replica's store.

        The twin shares the store, and recovering rebinds the store's
        snapshot source to the twin; the live replica's binding is put back
        whatever the replay does, so later compactions still snapshot the
        live state.
        """
        store = self.store
        saved_source = store.snapshot_source
        try:
            twin = type(self)(self.node_id, self.config, store=store)
            twin.recover()
            return twin.state_fingerprint(include_signing_logs=include_signing_logs)
        finally:
            store.snapshot_source = saved_source

    def snapshot_wire(self) -> dict[str, Any]:
        """The full durable state as one canonical wire value.

        This is what a state-transfer frame ships to a bootstrapping peer
        (``repro.shard``); the receiver revalidates it independently.
        """
        return self._state.snapshot_wire()

    # -- self-stabilization ------------------------------------------------

    def enter_quarantine(self, reason: str) -> None:
        """Stop serving protocol traffic until repair completes.

        Idempotent per episode of corruption: re-detecting the same damage
        while already quarantined does not count a second quarantine.
        """
        self.stats.quarantine_reasons[reason] += 1
        if not self.quarantined:
            self.quarantined = True
            self.stats.quarantines += 1

    def self_audit(self) -> bool:
        """Verify the live state against an independent replay of the store.

        A scratch twin recovers from the same store and its exact
        fingerprint (signing logs included) is compared against the live
        state.  This catches both silent in-memory perturbation (live
        state no longer matches what the durable log reproduces) and
        latent disk corruption (the store flags itself ``suspect`` during
        the twin's load).  Returns True when clean; on failure the replica
        enters quarantine and should repair from peers.
        """
        self.stats.self_audits += 1
        try:
            replayed = self.replayed_fingerprint(include_signing_logs=True)
        except Exception:
            self.enter_quarantine("audit-replay-failed")
            return False
        if getattr(self.store, "suspect", False):
            self.enter_quarantine("corrupt-storage")
            return False
        if self.state_fingerprint(include_signing_logs=True) != replayed:
            self.enter_quarantine("audit-mismatch")
            return False
        return True

    def audit_tick(self) -> list[Send]:
        """One tick of the self-stabilization loop: self-audit while
        healthy; while quarantined (whether this audit or an earlier
        recovery quarantined it), start or continue the repair pull.

        Returns the repair requests to send — :meth:`begin_repair`'s on the
        first tick, retransmissions to unanswered peers on later ones, none
        while healthy.  Every host (simulator, socket server, chaos
        campaign) runs this and only sends what it returns.
        """
        if not self.quarantined:
            self.self_audit()
        return self.repair_retransmit() if self.repair.active else self.begin_repair()

    def begin_repair(self) -> list[Send]:
        """Start pulling replacement state from peers; returns the requests.

        Only meaningful while quarantined — a healthy replica has nothing
        to repair and gets an empty batch.
        """
        if not self.quarantined:
            return []
        return self.repair.begin()

    def repair_retransmit(self) -> list[Send]:
        """Re-issue repair pulls to peers that have not answered yet."""
        if not self.quarantined:
            return []
        return self.repair.retransmit()

    def _install_repaired_state(self, snapshot: dict[str, Any]) -> None:
        """Adopt a validated peer snapshot, keeping our own signing logs.

        Signing logs record what *this* replica signed; importing a peer's
        would double-count signatures in the Lemma 1 accounting, while our
        own surviving prefix can only undercount (safe — see PROTOCOL.md).
        ``fastc`` rides with them: its MAC rows are replica-local secrets.
        These are the fields declared ``local``
        (:meth:`~repro.core.persistence.DurableReplicaState.adopt`).

        The surviving logs are taken from a fresh replay of the durable
        store, not from live memory — when the quarantine was triggered by
        an in-memory perturbation, the store still holds the true logs.
        """
        self._state.adopt(snapshot)
        self.recover()
        self.quarantined = False
        self.stats.repairs += 1

    def _handle_repair_request(self, message: RepairRequest) -> Optional[Message]:
        """Serve our full state to a repairing peer (never while quarantined —
        known-bad state must not propagate)."""
        if self.quarantined:
            self.stats.discard("quarantined")
            return None
        return RepairReply(
            replica=self.node_id,
            nonce=message.nonce,
            snapshot=self.snapshot_wire(),
            fingerprint=self.state_fingerprint(),
        )

    # -- helpers ----------------------------------------------------------

    def _sign(self, statement: bytes) -> Signature:
        self.stats.foreground_signs += 1
        return self.config.scheme.sign(self.node_id, statement)

    def _write_reply_signature(self, ts: Timestamp) -> Signature:
        """Signature for ``<WRITE-REPLY, ts>``, using the §3.3.2 cache."""
        self.signed_write_replies.add(ts)
        cached = self._presigned.pop(ts, None)
        if cached is not None:
            return cached
        return self._sign(write_reply_statement(ts))

    def _presign_write_reply(self, ts: Timestamp) -> None:
        if self.config.background_signing and ts not in self._presigned:
            # NOTE: the presigned signature is *not* logged as released —
            # it leaves the replica only when the phase-3 request arrives
            # (via _write_reply_signature), which is what Lemma 1's
            # signature-counting argument is about.
            self._presigned[ts] = self.config.scheme.sign(
                self.node_id, write_reply_statement(ts)
            )
            self.stats.background_signs += 1

    def _client_request_ok(self, client: str, signature: Signature) -> bool:
        """ACL and (optionally) strict-stop checks on a signed request."""
        if signature.signer != client:
            return False
        if not self.config.is_authorized_writer(client):
            self.stats.discard("unauthorized")
            return False
        if self.config.strict_stop and self.config.registry.is_revoked(client):
            self.stats.discard("revoked")
            return False
        return True

    def _ts_vouch(self) -> Optional[Signature]:
        """§7: vouch that a write with ``pcert.ts`` is stored at this replica."""
        if not self.config.strong:
            return None
        self.signed_write_replies.add(self.pcert.ts)
        return self._sign(write_reply_statement(self.pcert.ts))

    def _pvouch(self) -> Optional[Signature]:
        """Fast-path hook: vouch for a proof-evidence ``pcert`` (base: none)."""
        return None

    def _certificate_valid(self, cert: PrepareCertificate) -> bool:
        """Prepare-certificate acceptance hook.

        The base replica accepts exactly what any third party would
        (:meth:`~repro.core.verification.Verifier.certificate_valid`); the
        fast replica overrides this to additionally accept proof evidence by
        checking its own MAC column.
        """
        return self.verifier.certificate_valid(cert)

    def _write_certificate_valid(self, wcert: WriteCertificate) -> bool:
        """Write-certificate acceptance hook (see :meth:`_certificate_valid`)."""
        return self.verifier.certificate_valid(wcert)

    def _apply_write_certificate(self, wcert: Optional[WriteCertificate]) -> bool:
        """Figure 2 phase-2 step 2: advance write_ts and prune prepare lists.

        Returns False if a present certificate is invalid (caller discards).
        """
        if wcert is None:
            return True
        if not self._write_certificate_valid(wcert):
            self.stats.discard("bad-write-cert")
            return False
        self._state.advance("write_ts", wcert.ts)
        if self.config.gc_plist:
            self._gc_prepare_lists()
        return True

    def _gc_prepare_lists(self) -> None:
        # Scans only hot entries; spilled ones are collected lazily against
        # the same (monotone) cutoff — see repro.core.persistence.
        self.plist.gc_stale(self.write_ts)

    # -- dispatch ----------------------------------------------------------

    def handle(self, sender: str, message: Message) -> Optional[Message]:
        """Process one request; return the reply or None (silent discard).

        The whole call runs inside the store's
        :meth:`~repro.storage.ReplicaStore.group`: every record the message
        logs shares the one barrier issued before this method returns, so
        no host can release the reply ahead of it.  A host that releases
        several replies at once may hold a wider scope of its own around
        its calls and pay one barrier for all of them.

        When instrumented, the dispatch runs inside a handler span
        (series ``handler.<KIND>``); the uninstrumented path goes straight
        to :meth:`_dispatch`.

        Repair traffic is routed ahead of the quarantine gate: a
        quarantined replica still *receives* repair replies (that is how it
        heals) and still answers repair pulls from others with a refusal —
        everything else is discarded with the ``quarantined`` reason until
        repair completes.
        """
        with self._state.store.group():
            if isinstance(message, RepairRequest):
                self.stats.handled[message.KIND] += 1
                reply = self._handle_repair_request(message)
                if reply is not None:
                    self.stats.replies += 1
                return reply
            if isinstance(message, RepairReply):
                self.stats.handled[message.KIND] += 1
                self.repair.on_reply(sender, message)
                return None
            if self.quarantined:
                self.stats.handled[message.KIND] += 1
                self.stats.discard("quarantined")
                return None
            instr = self.instrumentation
            if not instr.enabled:
                return self._dispatch(sender, message)
            span = instr.handler_span(message.KIND, node=self.node_id)
            try:
                reply = self._dispatch(sender, message)
                span.set("replied", reply is not None)
                return reply
            finally:
                span.end()

    def _dispatch(self, sender: str, message: Message) -> Optional[Message]:
        self.stats.handled[message.KIND] += 1
        if isinstance(message, ReadTsRequest):
            reply = self._handle_read_ts(message)
        elif isinstance(message, PrepareRequest):
            reply = self._handle_prepare(message)
        elif isinstance(message, WriteRequest):
            reply = self._handle_write(message)
        elif isinstance(message, ReadRequest):
            reply = self._handle_read(message)
        else:
            self.stats.discard("unknown-kind")
            reply = None
        if reply is not None:
            self.stats.replies += 1
        return reply

    # -- phase 1: READ-TS --------------------------------------------------

    def _handle_read_ts(self, message: ReadTsRequest) -> ReadTsReply:
        # §3.3.1 piggyback: an attached write certificate is a free hint for
        # pruning the prepare list; an invalid one is simply ignored (the
        # read itself is still served).
        if message.write_cert is not None:
            self._apply_write_certificate(message.write_cert)
        signature = self._sign(read_ts_reply_statement(self.pcert, message.nonce))
        return ReadTsReply(
            cert=self.pcert,
            nonce=message.nonce,
            signature=signature,
            ts_vouch=self._ts_vouch(),
            pvouch=self._pvouch(),
        )

    # -- phase 2: PREPARE ----------------------------------------------------

    def _handle_prepare(self, message: PrepareRequest) -> Optional[PrepareReply]:
        client = message.signature.signer
        if not self._client_request_ok(client, message.signature):
            return None
        statement = prepare_request_statement(
            message.prev_cert,
            message.ts,
            message.value_hash,
            message.write_cert,
            message.justify_cert,
        )
        if not self.verifier.verify(message.signature, statement):
            self.stats.discard("bad-signature")
            return None
        if not self._certificate_valid(message.prev_cert):
            self.stats.discard("bad-prepare-cert")
            return None
        # Timestamp succession: t = succ(prepC.ts, c).  This is what stops a
        # bad client from exhausting the timestamp space (§3.2 issue 3).
        if message.ts != message.prev_cert.ts.succ(client):
            self.stats.discard("bad-ts")
            return None
        if self.config.strong:
            # §7: the proposed timestamp must succeed a *completed* write.
            if message.justify_cert is None:
                self.stats.discard("missing-justify")
                return None
            if not self.verifier.certificate_valid(message.justify_cert):
                self.stats.discard("bad-justify-cert")
                return None
            if message.ts != message.justify_cert.ts.succ(client):
                self.stats.discard("bad-justify-ts")
                return None
        if not self._apply_write_certificate(message.write_cert):
            return None
        entry = self.plist.get(client)
        if entry is not None and (
            entry.ts != message.ts or entry.value_hash != message.value_hash
        ):
            # One outstanding prepare per client: the client must complete
            # (or the write certificate must clear) its previous write first.
            self.stats.discard("plist-conflict")
            return None
        if entry is None and message.ts > self.write_ts:
            self.plist[client] = PlistEntry(ts=message.ts, value_hash=message.value_hash)
        self._presign_write_reply(message.ts)
        self.signed_prepare_replies.add((message.ts, message.value_hash, client))
        signature = self._sign(prepare_reply_statement(message.ts, message.value_hash))
        return PrepareReply(
            ts=message.ts, value_hash=message.value_hash, signature=signature
        )

    # -- phase 3: WRITE ------------------------------------------------------

    def _handle_write(self, message: WriteRequest) -> Optional[WriteReply]:
        client = message.signature.signer
        if not self._client_request_ok(client, message.signature):
            return None
        statement = write_request_statement(message.value, message.prepare_cert)
        if not self.verifier.verify(message.signature, statement):
            self.stats.discard("bad-signature")
            return None
        cert = message.prepare_cert
        if not self._certificate_valid(cert):
            self.stats.discard("bad-prepare-cert")
            return None
        if cert.h != hash_value(message.value):
            self.stats.discard("bad-hash")
            return None
        if self._should_install(cert):
            self._state.install(message.value, cert)
            self.stats.writes_installed += 1
        signature = self._write_reply_signature(cert.ts)
        return WriteReply(ts=cert.ts, signature=signature)

    def _should_install(self, cert: PrepareCertificate) -> bool:
        """Figure 2 phase-3 step 2: overwrite only on a larger timestamp."""
        return cert.ts > self.pcert.ts

    # -- reads ---------------------------------------------------------------

    def _handle_read(self, message: ReadRequest) -> ReadReply:
        if message.write_cert is not None:
            self._apply_write_certificate(message.write_cert)  # §3.3.1 hint
        signature = self._sign(
            read_reply_statement(self.data, self.pcert, message.nonce)
        )
        return ReadReply(
            value=self.data,
            cert=self.pcert,
            nonce=message.nonce,
            signature=signature,
            ts_vouch=self._ts_vouch(),
            pvouch=self._pvouch(),
        )


class OptimizedBftBcReplica(BftBcReplica):
    """§6 replica: merged phase-1/2, second prepare list, hash tie-break."""

    def __init__(
        self,
        node_id: str,
        config: SystemConfig,
        store: Optional[ReplicaStore] = None,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(node_id, config, store, instrumentation=instrumentation)
        self._state.open("optlist")

    @property
    def optlist(self):
        """The §6 second prepare list (logged map, like ``plist``)."""
        return self._state.optlist

    def _dispatch(self, sender: str, message: Message) -> Optional[Message]:
        if isinstance(message, ReadTsPrepRequest):
            self.stats.handled[message.KIND] += 1
            reply = self._handle_read_ts_prep(message)
            if reply is not None:
                self.stats.replies += 1
            return reply
        return super()._dispatch(sender, message)

    def _gc_prepare_lists(self) -> None:
        super()._gc_prepare_lists()
        self.optlist.gc_stale(self.write_ts)

    def _handle_read_ts_prep(
        self, message: ReadTsPrepRequest
    ) -> Optional[ReadTsPrepReply]:
        client = message.signature.signer
        if not self._client_request_ok(client, message.signature):
            return None
        statement = read_ts_prep_request_statement(
            message.value_hash, message.write_cert, message.nonce
        )
        if not self.verifier.verify(message.signature, statement):
            self.stats.discard("bad-signature")
            return None
        if not self._apply_write_certificate(message.write_cert):
            return None
        predicted = self.pcert.ts.succ(client)
        prepared_ts: Optional[Timestamp] = None
        prep_sig: Optional[Signature] = None
        if self._may_opt_prepare(client, predicted, message.value_hash):
            if client not in self.optlist:
                self.optlist[client] = PlistEntry(
                    ts=predicted, value_hash=message.value_hash
                )
            self._presign_write_reply(predicted)
            self.signed_prepare_replies.add(
                (predicted, message.value_hash, client)
            )
            prepared_ts = predicted
            prep_sig = self._sign(
                prepare_reply_statement(predicted, message.value_hash)
            )
        signature = self._sign(
            read_ts_prep_reply_statement(self.pcert, prepared_ts, message.nonce)
        )
        return ReadTsPrepReply(
            cert=self.pcert,
            prepared_ts=prepared_ts,
            prep_sig=prep_sig,
            nonce=message.nonce,
            signature=signature,
        )

    def _may_opt_prepare(
        self, client: str, predicted: Timestamp, value_hash: bytes
    ) -> bool:
        """§6.2: prepare on the client's behalf unless it already has an
        entry in either prepare list for a different timestamp or hash."""
        if predicted <= self.write_ts:
            return False
        for entries in (self.plist, self.optlist):
            entry = entries.get(client)
            if entry is not None and (
                entry.ts != predicted or entry.value_hash != value_hash
            ):
                return False
        return True

    def _should_install(self, cert: PrepareCertificate) -> bool:
        """§6.2 phase 3: on an equal timestamp keep the larger hash."""
        if cert.ts > self.pcert.ts:
            return True
        return cert.ts == self.pcert.ts and cert.h > self.pcert.h
