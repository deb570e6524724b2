"""System-wide configuration shared by clients and replicas.

A :class:`SystemConfig` bundles the quorum system, the key registry, the
signature scheme, and the protocol options the design calls out for ablation
(§3.3.2 background signing, §3.3.1 prepare-list garbage collection, §4.1.1
strict-stop access control, §7 strong mode).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

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

    A ``str`` subclass, so existing comparisons against the literal strings
    (``options.variant == "strong"``) keep working, and :meth:`coerce`
    accepts either form — the one place variant spelling is validated.
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
