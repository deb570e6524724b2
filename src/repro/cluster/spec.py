"""The declarative deployment specification.

One frozen dataclass names everything the previous four construction paths
took as ad-hoc keyword soup: protocol shape (``f``, ``variant``,
``scheme``), transport (``sim`` | ``tcp`` | ``process``), durability
(``store``, ``data_dir``, ``fsync``), batching knobs, and the pipeline
width.  :func:`repro.cluster.deploy.deploy` turns a spec into a running
deployment; every transport derives its key material from the same
deterministic seed, which is what lets separate worker processes (and the
offline fingerprint recovery pass) agree on signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.core.config import SystemConfig, Variant, make_system
from repro.errors import QuorumConfigError

__all__ = ["DeploymentSpec"]

TRANSPORTS = ("sim", "tcp", "process")
STORES = ("memory", "file")


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to stand up one replica group, declaratively.

    Attributes:
        f: fault threshold; the group has ``n = 3f + 1`` replicas.
        variant: protocol variant (``base`` | ``optimized`` | ``strong`` |
            ``fastpath``), validated through :class:`Variant`.
        scheme: signature backend, ``hmac`` or ``rsa``.
        seed: master-seed discriminator; all transports derive keys from
            ``cluster-seed-<seed>`` so cross-process verification works.
        transport: ``sim`` (virtual time), ``tcp`` (in-process asyncio
            servers over loopback), or ``process`` (one OS process per
            worker, spawned via ``python -m repro serve``).
        store: ``memory`` or ``file`` (durable WAL + snapshots).  The
            process transport always journals to files.
        data_dir: directory for file stores / worker directories; when
            ``None`` the deployment creates (and owns) a temporary one.
        fsync: ``always`` or ``never``, passed to the file store.
        batching: client-side cross-object frame coalescing (sim only).
        batch_verify: amortize replicas' signature checks over each
            arriving frame batch (``Verifier.verify_batch``).
        instrumentation: attach an :class:`~repro.obs.Instrumentation`
            handle timing handlers, stores, and verification counters.
        pipeline: in-flight operations per deployment handle — the number
            of logical clients multiplexed over the shared connections
            (``repro.net.mux``).
        workers: process transport only — number of worker processes the
            ``n`` replicas are partitioned across (default: one each).
        host: listen address for the real transports.
    """

    f: int = 1
    variant: str = "base"
    scheme: str = "hmac"
    seed: int = 0
    transport: str = "sim"
    store: str = "memory"
    data_dir: Optional[str] = None
    fsync: str = "always"
    batching: bool = False
    batch_verify: bool = True
    instrumentation: bool = False
    pipeline: int = 1
    workers: Optional[int] = None
    host: str = "127.0.0.1"
    #: Extra keyword overrides forwarded to the sim ``ClusterOptions``
    #: (escape hatch for knobs the spec does not name).
    sim_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        Variant.coerce(self.variant)
        if self.transport not in TRANSPORTS:
            raise QuorumConfigError(
                f"unknown transport {self.transport!r}; expected one of {TRANSPORTS}"
            )
        if self.store not in STORES:
            raise QuorumConfigError(
                f"unknown store {self.store!r}; expected one of {STORES}"
            )
        if self.scheme not in ("hmac", "rsa"):
            raise QuorumConfigError(f"unknown signature scheme {self.scheme!r}")
        if self.fsync not in ("always", "never"):
            raise QuorumConfigError(f"unknown fsync mode {self.fsync!r}")
        if self.f < 1:
            raise QuorumConfigError("f must be at least 1")
        if self.pipeline < 1:
            raise QuorumConfigError("pipeline width must be at least 1")
        if self.workers is not None and not 1 <= self.workers <= self.n:
            raise QuorumConfigError(
                f"workers must be between 1 and n={self.n}"
            )

    @property
    def n(self) -> int:
        return 3 * self.f + 1

    @property
    def master_seed(self) -> bytes:
        """The deterministic key-derivation seed every transport shares."""
        return b"cluster-seed-%d" % self.seed

    def make_config(
        self, namespaces: Sequence[str] = ("client:",)
    ) -> SystemConfig:
        """The configuration every party of this deployment builds.

        Servers, worker processes, the client side and the offline
        recovery pass all derive identical key material from
        :attr:`master_seed`, and admit the given client-id namespaces
        wholesale so signatures from clients they have never met still
        verify (see ``KeyRegistry.open_namespace``).
        """
        config = make_system(
            self.f,
            scheme=self.scheme,
            seed=self.master_seed,
            strong=Variant.coerce(self.variant).strong,
        )
        for prefix in namespaces:
            config.registry.open_namespace(prefix)
        return config

    def with_(self, **overrides: Any) -> "DeploymentSpec":
        """A copy with the given fields replaced (sweep ergonomics)."""
        return replace(self, **overrides)

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form, recorded in the process cluster's state file."""
        return {
            "f": self.f,
            "variant": str(self.variant),
            "scheme": self.scheme,
            "seed": self.seed,
            "transport": self.transport,
            "store": self.store,
            "data_dir": self.data_dir,
            "fsync": self.fsync,
            "batching": self.batching,
            "batch_verify": self.batch_verify,
            "instrumentation": self.instrumentation,
            "pipeline": self.pipeline,
            "workers": self.workers,
            "host": self.host,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "DeploymentSpec":
        known = {k: wire[k] for k in cls.__dataclass_fields__ if k in wire}
        known.pop("sim_options", None)
        return cls(**known)
