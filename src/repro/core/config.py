"""System-wide configuration shared by clients and replicas.

A :class:`SystemConfig` bundles the quorum system, the key registry, the
signature scheme, and the protocol options the design calls out for ablation
(§3.3.2 background signing, §3.3.1 prepare-list garbage collection, §4.1.1
strict-stop access control, §7 strong mode).

:class:`Variant` names the four protocol variants and is the one place a
variant turns into what runs it and what it costs: its classes
(:attr:`Variant.replica_cls`, :attr:`Variant.client_cls`) and its declared
:class:`Protocol` — the phases of each operation (:class:`Phase`), with
what every message carries, the signatures each side computes and the WAL
records a replica appends, plus the paper's per-variant bounds.  The cost
model (:mod:`repro.analysis.costs`), the chaos oracles and the CLI read
that declaration instead of comparing variant names.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Union

from repro.core import messages as msg
from repro.core.persistence import ClientStateBudget
from repro.core.quorum import QuorumSystem
from repro.core.verification import Verifier
from repro.crypto.authenticators import MacAuthenticator
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    HmacSignatureScheme,
    RsaSignatureScheme,
    SignatureScheme,
)
from repro.errors import QuorumConfigError

__all__ = [
    "Variant",
    "Carry",
    "Phase",
    "Protocol",
    "READ_OPERATION",
    "AccessPolicy",
    "ExplicitWriters",
    "NamespaceWriters",
    "PredicateWriters",
    "SystemConfig",
    "make_system",
]


class AccessPolicy(ABC):
    """Pluggable write-authorisation rule behind ``authorized_writers``.

    The paper's ACL (§4.1.1) is a set of principals, but a million-writer
    deployment cannot materialise a million-entry set.  A policy answers
    membership queries instead: :class:`ExplicitWriters` is the classic set,
    :class:`NamespaceWriters` admits whole id prefixes in O(1) memory, and
    :class:`PredicateWriters` wraps an arbitrary callable.  All three keep
    *denials* exact — like key revocation, retraction is rare and must never
    be evicted or approximated.
    """

    @abstractmethod
    def allows(self, client: str) -> bool:
        """Whether ``client`` may write."""

    @abstractmethod
    def authorize(self, client: str) -> None:
        """Grant ``client`` write access (idempotent)."""

    @abstractmethod
    def retract(self, client: str) -> None:
        """Withdraw ``client``'s write access (idempotent)."""


class ExplicitWriters(AccessPolicy, set):
    """The classic explicit ACL: a real ``set`` of authorised ids.

    Subclasses ``set`` so existing code (and tests) that compare
    ``config.authorized_writers == {"client:a"}`` or mutate it with
    ``add``/``discard`` keep working unchanged.
    """

    def allows(self, client: str) -> bool:
        return client in self

    def authorize(self, client: str) -> None:
        self.add(client)

    def retract(self, client: str) -> None:
        self.discard(client)


class NamespaceWriters(AccessPolicy):
    """Authorise every id starting with one of the given prefixes.

    Resident memory is O(prefixes + exceptions), not O(writers): a load
    harness admitting ``load:w000000`` … ``load:w999999`` holds one prefix.
    Explicit grants outside the namespaces land in ``extra``; retractions
    land in the exact ``denied`` set, which always wins.
    """

    def __init__(
        self,
        prefixes: Union[str, Iterable[str]],
        *,
        extra: Iterable[str] = (),
        denied: Iterable[str] = (),
    ) -> None:
        if isinstance(prefixes, str):
            prefixes = (prefixes,)
        self.prefixes: tuple[str, ...] = tuple(prefixes)
        self.extra: set[str] = set(extra)
        self.denied: set[str] = set(denied)

    def allows(self, client: str) -> bool:
        if client in self.denied:
            return False
        if client in self.extra:
            return True
        return bool(self.prefixes) and client.startswith(self.prefixes)

    def authorize(self, client: str) -> None:
        self.denied.discard(client)
        if not (self.prefixes and client.startswith(self.prefixes)):
            self.extra.add(client)

    def retract(self, client: str) -> None:
        self.extra.discard(client)
        self.denied.add(client)

    def __repr__(self) -> str:
        return (
            f"NamespaceWriters(prefixes={self.prefixes!r}, "
            f"extra={len(self.extra)}, denied={len(self.denied)})"
        )


class PredicateWriters(AccessPolicy):
    """Authorise by arbitrary predicate, with exact grant/denial overrides."""

    def __init__(self, predicate: Callable[[str], bool]) -> None:
        self.predicate = predicate
        self.extra: set[str] = set()
        self.denied: set[str] = set()

    def allows(self, client: str) -> bool:
        if client in self.denied:
            return False
        if client in self.extra:
            return True
        return bool(self.predicate(client))

    def authorize(self, client: str) -> None:
        self.denied.discard(client)
        self.extra.add(client)

    def retract(self, client: str) -> None:
        self.extra.discard(client)
        self.denied.add(client)


class Variant(str, enum.Enum):
    """The four protocol variants, shared by the cluster, benchmarks, CLI.

    A ``str`` subclass, so a variant serialises as its name, and
    :meth:`coerce` accepts either form — the one place variant spelling is
    validated.  Code outside this module asks a variant for its
    :attr:`protocol` rather than comparing it against a name.
    """

    BASE = "base"
    OPTIMIZED = "optimized"
    STRONG = "strong"
    FASTPATH = "fastpath"

    def __str__(self) -> str:
        return self.value

    # The variant registry: the one place a variant name turns into the
    # classes that run it.  Imports are late because ``client`` and
    # ``replica`` import this module.

    @property
    def strong(self) -> bool:
        """The ``strong=`` flag :func:`make_system` takes for this variant."""
        return self is Variant.STRONG

    @property
    def replica_cls(self) -> type:
        """The replica class hosting this variant (§7 reuses the base one)."""
        from repro.core.fast_replica import FastBftBcReplica
        from repro.core.replica import BftBcReplica, OptimizedBftBcReplica

        return {
            Variant.BASE: BftBcReplica,
            Variant.OPTIMIZED: OptimizedBftBcReplica,
            Variant.STRONG: BftBcReplica,
            Variant.FASTPATH: FastBftBcReplica,
        }[self]

    @property
    def client_cls(self) -> type:
        """The client class speaking this variant."""
        from repro.core import client

        return {
            Variant.BASE: client.BftBcClient,
            Variant.OPTIMIZED: client.OptimizedBftBcClient,
            Variant.STRONG: client.StrongBftBcClient,
            Variant.FASTPATH: client.FastBftBcClient,
        }[self]

    @property
    def protocol(self) -> "Protocol":
        """This variant's declared phases, bounds and fast path."""
        return _PROTOCOLS[self]

    @classmethod
    def coerce(cls, value: Union[str, "Variant"]) -> "Variant":
        """Normalise a variant name; raises ``QuorumConfigError`` if unknown."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise QuorumConfigError(
                f"unknown variant {value!r}; expected one of "
                f"{tuple(v.value for v in cls)}"
            ) from None


class Carry(enum.Enum):
    """What a message carries besides its header, the set the cost model
    prices: a row is one MAC per replica, an envelope one MAC over a reply,
    a proof a commitment, its opening and a quorum of ack rows."""

    CERTIFICATE = "certificate"
    VALUE = "value"
    MAC_ROW = "MAC row"
    ACK_ROW = "ack row"
    PROOF = "proof"
    ENVELOPE = "envelope"


@dataclass(frozen=True, repr=False)
class Phase:
    """One request/reply round in the steady state (a reliable network, a
    client holding its previous write certificate): what each message
    carries, the client's signatures for the request, each replica's for
    its reply, and the WAL records each replica appends handling it."""

    request: type[msg.Message]
    reply: type[msg.Message]
    request_carries: tuple[Carry, ...] = ()
    reply_carries: tuple[Carry, ...] = ()
    client_signs: int = 0
    replica_signs: int = 0
    wal_records: int = 0

    def __repr__(self) -> str:
        return f"Phase({self.request.KIND} -> {self.reply.KIND})"

    def signs(self, n: int) -> int:
        """Signatures the round computes, both sides, at ``n`` replicas."""
        return self.client_signs + n * self.replica_signs

    def macs(self, n: int) -> int:
        """MACs the round computes, both sides, at ``n`` replicas."""
        request, reply = self.request_carries, self.reply_carries
        per_reply = n * reply.count(Carry.ACK_ROW) + reply.count(Carry.ENVELOPE)
        return n * request.count(Carry.MAC_ROW) + n * per_reply


_CERT, _VALUE = Carry.CERTIFICATE, Carry.VALUE
_FAST_REPLY = (Carry.ACK_ROW, Carry.ENVELOPE)

# Figure 1.  PREPARE carries Pmax and the previous write certificate; it
# logs ``spr`` and the plist entry, plus the write-ts advance and the GC of
# the entry that certificate subsumes.  WRITE logs ``install`` and ``swr``.
_READ_TS = Phase(msg.ReadTsRequest, msg.ReadTsReply, (), (_CERT,), replica_signs=1)
_PREPARE = Phase(msg.PrepareRequest, msg.PrepareReply, (_CERT, _CERT),
                 client_signs=1, replica_signs=1, wal_records=4)
_WRITE = Phase(msg.WriteRequest, msg.WriteReply, (_VALUE, _CERT),
               client_signs=1, replica_signs=1, wal_records=2)
_READ = Phase(msg.ReadRequest, msg.ReadReply, (), (_VALUE, _CERT), replica_signs=1)

#: The read every variant shares: READ, then the write-back (a phase-3
#: WRITE to the replicas that are behind, when a quorum disagrees, §3.2.2).
READ_OPERATION = (_READ, _WRITE)

# §6: the merged phase signs the reply envelope and, having prepared on the
# client's behalf, the embedded PREPARE-REPLY; it logs what PREPARE does.
_READ_TS_PREP = Phase(msg.ReadTsPrepRequest, msg.ReadTsPrepReply, (_CERT,), (_CERT,),
                      client_signs=1, replica_signs=2, wal_records=4)

# §7: every phase-1 reply adds a timestamp vouch (a WRITE-REPLY signature
# over the stored certificate's timestamp); PREPARE adds the justify
# certificate.
_STRONG_READ_TS = replace(_READ_TS, replica_signs=2)
_STRONG_READ = replace(_READ, replica_signs=2)
_STRONG_PREPARE = replace(_PREPARE, request_carries=(_CERT, _CERT, _CERT))

# The MAC-only rounds sign nothing.  FAST-PREP logs what the merged phase
# does plus the ``fastc`` commitment and its GC.
_FAST_PREP = Phase(msg.FastPrepRequest, msg.FastPrepReply, (_CERT, Carry.MAC_ROW),
                   _FAST_REPLY, wal_records=6)
_FAST_WRITE = Phase(msg.FastWriteRequest, msg.FastWriteReply,
                    (Carry.PROOF, _VALUE, Carry.MAC_ROW), _FAST_REPLY, wal_records=2)


@dataclass(frozen=True)
class Protocol:
    """One variant's operations and the paper's bounds on them: a write's
    phases in the normal and the worst case, Definition 1's lurking bound
    ``max_b`` (Theorems 1 and 2), the certifiable prepares one client can
    hold (Lemmas 1 and 1'), whether a write can skip its explicit prepare
    round (``fast_path``), and a read's phases."""

    write: tuple[Phase, ...]
    worst_write: tuple[Phase, ...]
    max_b: int
    max_prepared: int
    fast_path: bool
    read: tuple[Phase, ...] = READ_OPERATION

    @property
    def fast_kinds(self) -> tuple[str, ...]:
        """Request kinds of the MAC-authenticated write rounds, in order."""
        return tuple(
            phase.request.KIND
            for phase in self.write
            if Carry.MAC_ROW in phase.request_carries
        )


_BASE_WRITE = (_READ_TS, _PREPARE, _WRITE)

_PROTOCOLS = {
    Variant.BASE: Protocol(
        _BASE_WRITE, _BASE_WRITE, max_b=1, max_prepared=1, fast_path=False
    ),
    # Contention makes the merged phase fall back to an explicit PREPARE.
    Variant.OPTIMIZED: Protocol(
        (_READ_TS_PREP, _WRITE), (_READ_TS_PREP, _PREPARE, _WRITE),
        max_b=2, max_prepared=2, fast_path=True,
    ),
    # Unequal phase-1 timestamps make the client redo phase 1 as a read and
    # write the value back before it can assemble the justify certificate.
    Variant.STRONG: Protocol(
        (_STRONG_READ_TS, _STRONG_PREPARE, _WRITE),
        (_STRONG_READ_TS, _STRONG_READ, _WRITE, _STRONG_PREPARE, _WRITE),
        max_b=1, max_prepared=1, fast_path=False, read=(_STRONG_READ, _WRITE),
    ),
    # A failed fast round demotes to the signed protocol; the worst case is
    # a FAST-WRITE that stalls below quorum, demoting after both fast
    # rounds.  Fast acks share the optlist, so the bounds are the optimized
    # protocol's.
    Variant.FASTPATH: Protocol(
        (_FAST_PREP, _FAST_WRITE),
        (_FAST_PREP, _FAST_WRITE, _READ_TS, _PREPARE, _WRITE),
        max_b=2, max_prepared=2, fast_path=True,
    ),
}


@dataclass
class SystemConfig:
    """Everything a node needs to participate in one BFT-BC deployment.

    Attributes:
        quorums: the (n, f, |Q|) quorum system.
        registry: the simulated PKI (key derivation + revocation).
        scheme: signature backend used for all authenticated statements.
        strong: enable the §7 variant (PREPARE carries a justify write
            certificate; phase-1 replies carry timestamp vouches).
        background_signing: replicas pre-sign phase-3 (WRITE-REPLY)
            statements at prepare time so the signature is off the write
            path, per §3.3.2.
        gc_plist: replicas prune prepare-list entries using piggybacked
            write certificates, per §3.3.1.
        strict_stop: replicas additionally reject requests whose *signer*
            has been revoked (the stronger stop notion of §4.1.1 where even
            replays are discarded).  Off by default, as in the paper.
        piggyback_write_certs: clients attach their latest write certificate
            to READ / READ-TS requests so replicas can prune their prepare
            lists sooner — §3.3.1's optional speed-up.
        prefer_quorum: clients send each phase's request to a preferred
            quorum of 2f+1 replicas first, expanding to the full group only
            on retransmission.  This is the messaging discipline §3.3.1's
            O(|Q|) message count assumes ("three RPCs to a quorum of
            replicas"); off by default because broadcasting to all 3f+1 is
            more robust to slow replicas.
        authorized_writers: the write-authorisation rule.  ``None``
            authorises every registered client.  Accepts a plain ``set`` /
            ``frozenset`` (the classic ACL), an :class:`AccessPolicy`
            (explicit, namespace, or predicate), or a bare callable
            ``client_id -> bool``.
        client_state_budget: optional per-replica budget for per-client
            protocol state (``plist``/``optlist``/``fastc``); inactive
            clients spill to the WAL-backed store and rehydrate on demand.
            ``None`` keeps every entry resident (the classic behaviour).
        verifier: the shared :class:`~repro.core.verification.Verifier`
            every role verifies through.  Built automatically; rebuilt by
            ``dataclasses.replace`` whenever the scheme is swapped (e.g. the
            multi-object scoped schemes), so caches never cross schemes.
    """

    quorums: QuorumSystem
    registry: KeyRegistry
    scheme: SignatureScheme
    strong: bool = False
    background_signing: bool = False
    gc_plist: bool = True
    strict_stop: bool = False
    piggyback_write_certs: bool = False
    prefer_quorum: bool = False
    authorized_writers: Optional[
        Union[AccessPolicy, set[str], frozenset[str], Callable[[str], bool]]
    ] = field(default=None)
    client_state_budget: Optional[ClientStateBudget] = None
    verifier: Optional[Verifier] = None
    #: Pairwise MAC authenticator for the fast path's signature-free
    #: messages.  Built automatically from the registry; shared by every
    #: node of the deployment (and preserved by ``dataclasses.replace``)
    #: so session keys are derived once.
    authenticator: Optional[MacAuthenticator] = None

    def __post_init__(self) -> None:
        if self.verifier is None or self.verifier.scheme is not self.scheme:
            self.verifier = Verifier(self.scheme, self.quorums)
        if self.authenticator is None:
            self.authenticator = MacAuthenticator(self.registry)

    @property
    def f(self) -> int:
        return self.quorums.f

    @property
    def n(self) -> int:
        return self.quorums.n

    @property
    def quorum_size(self) -> int:
        return self.quorums.quorum_size

    def is_authorized_writer(self, client: str) -> bool:
        """Authorisation check used by replicas on signed client requests.

        Every request path — base client, replica, fast path, shard router —
        funnels through here, so swapping the policy object changes the rule
        everywhere at once.
        """
        if not self.registry.is_registered(client):
            return False
        policy = self.authorized_writers
        if policy is None:
            return True
        if isinstance(policy, AccessPolicy):
            return policy.allows(client)
        if isinstance(policy, (set, frozenset)):
            return client in policy
        if callable(policy):
            return bool(policy(client))
        return client in policy

    def authorize_writer(self, client: str) -> None:
        if self.authorized_writers is None:
            self.authorized_writers = ExplicitWriters()
        policy = self.authorized_writers
        if isinstance(policy, AccessPolicy):
            policy.authorize(client)
        elif isinstance(policy, set):
            policy.add(client)
        else:
            raise QuorumConfigError(
                "cannot grant into a read-only writer policy "
                f"({type(policy).__name__}); use an AccessPolicy"
            )

    def revoke_writer(self, client: str) -> None:
        """Administrative stop: revoke the key and retract write access."""
        self.registry.revoke(client)
        policy = self.authorized_writers
        if isinstance(policy, AccessPolicy):
            policy.retract(client)
        elif isinstance(policy, set):
            policy.discard(client)


def make_system(
    f: int = 1,
    *,
    scheme: str = "hmac",
    seed: bytes = b"repro-default-seed",
    quorums: Optional[QuorumSystem] = None,
    strong: bool = False,
    background_signing: bool = False,
    gc_plist: bool = True,
    strict_stop: bool = False,
    piggyback_write_certs: bool = False,
    prefer_quorum: bool = False,
    authorized_writers: Optional[
        Union[AccessPolicy, set[str], frozenset[str], Callable[[str], bool]]
    ] = None,
    client_state_budget: Optional[ClientStateBudget] = None,
    secret_cache: Optional[int] = None,
) -> SystemConfig:
    """Build a ready-to-use configuration with registered replica keys.

    Args:
        f: fault threshold; defaults to the paper's 3f+1 quorum system.
        scheme: ``"hmac"`` (fast PKI simulation) or ``"rsa"`` (textbook
            RSA-FDH with public-key verification).
        seed: master seed for deterministic key derivation.
        quorums: override the quorum system (e.g. for Phalanx baselines).
        secret_cache: capacity of the registry's derived-secret LRU;
            ``None`` keeps the :class:`~repro.crypto.keys.KeyRegistry`
            default.  The load experiments size this per arm (tiny for the
            budgeted run, effectively unbounded for the baseline).

    Returns:
        A :class:`SystemConfig` with all replica keys already registered;
        clients register via ``config.registry.register(client_id)``.
    """
    quorum_system = quorums if quorums is not None else QuorumSystem.bft_bc(f)
    if secret_cache is None:
        registry = KeyRegistry(master_seed=seed)
    else:
        registry = KeyRegistry(master_seed=seed, secret_cache=secret_cache)
    if scheme == "hmac":
        signature_scheme: SignatureScheme = HmacSignatureScheme(registry)
    elif scheme == "rsa":
        signature_scheme = RsaSignatureScheme(registry)
    else:
        raise QuorumConfigError(f"unknown signature scheme {scheme!r}")
    for rid in quorum_system.replica_ids:
        registry.register(rid)
    return SystemConfig(
        quorums=quorum_system,
        registry=registry,
        scheme=signature_scheme,
        strong=strong,
        background_signing=background_signing,
        gc_plist=gc_plist,
        strict_stop=strict_stop,
        piggyback_write_certs=piggyback_write_certs,
        prefer_quorum=prefer_quorum,
        authorized_writers=authorized_writers,
        client_state_budget=client_state_budget,
    )
