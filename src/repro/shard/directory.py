"""Versioned, quorum-signed shard configurations.

A :class:`ShardConfig` names the replica group serving one shard at one
*epoch*.  Epoch 0 is genesis (trusted out of band, like the PKI seed);
every later epoch is carried by a :class:`DirectoryEntry` — the successor
configuration plus signatures from a quorum (2f+1) of the **previous**
epoch's members.  That is the forfeiting-consensus rule of arXiv
2005.13499: nobody runs agreement on configurations; a client that can
exhibit a correctly-chained sequence of quorum-signed entries is entitled
to act on the newest one, because any quorum of epoch ``e`` contains a
correct replica, and correct replicas sign at most one successor per
epoch (equivocation is refused, see
:meth:`repro.shard.replica.ShardReplica`).

:class:`ShardDirectory` is the verified cache of those chains that both
replicas and routing clients keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.core.quorum import QuorumSystem
from repro.crypto.signatures import Signature
from repro.encoding import canonical_encode
from repro.errors import CryptoError, ProtocolError

__all__ = ["ShardConfig", "DirectoryEntry", "ShardDirectory"]


@dataclass(frozen=True)
class ShardConfig:
    """One shard's replica group at one epoch."""

    shard: str
    epoch: int
    members: tuple[str, ...]
    f: int

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ProtocolError(f"negative epoch {self.epoch}")
        if len(self.members) != 3 * self.f + 1:
            raise ProtocolError(
                f"{len(self.members)} members cannot tolerate f={self.f} "
                f"(need 3f+1)"
            )
        if len(set(self.members)) != len(self.members):
            raise ProtocolError("duplicate members in shard config")

    @property
    def quorum_size(self) -> int:
        return 2 * self.f + 1

    def statement_bytes(self) -> bytes:
        """The canonical statement members sign to endorse this config."""
        return canonical_encode(
            ("shard-config", self.shard, self.epoch, self.f, self.members)
        )

    def quorums(self, extra_signers: Iterable[str] = ()) -> QuorumSystem:
        """The quorum system protocol traffic runs under at this epoch.

        ``extra_signers`` carries members of *earlier* epochs so stored
        certificates they signed keep validating after they leave the
        group; they receive no traffic (not in ``replica_ids``).
        """
        return QuorumSystem(
            n=len(self.members),
            f=self.f,
            quorum_size=self.quorum_size,
            members=self.members,
            extra_signers=frozenset(extra_signers) - set(self.members),
        )

    def to_wire(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "members": self.members,
            "f": self.f,
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "ShardConfig":
        if not isinstance(wire, Mapping):
            raise ProtocolError(f"malformed shard config: {wire!r}")
        try:
            shard = wire["shard"]
            epoch = wire["epoch"]
            members = tuple(wire["members"])
            f = wire["f"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed shard config: {wire!r}") from exc
        if (
            not isinstance(shard, str)
            or not isinstance(epoch, int)
            or not isinstance(f, int)
            or not all(isinstance(m, str) for m in members)
        ):
            raise ProtocolError(f"malformed shard config: {wire!r}")
        return cls(shard=shard, epoch=epoch, members=members, f=f)


@dataclass(frozen=True)
class DirectoryEntry:
    """A successor configuration endorsed by a quorum of its predecessor."""

    config: ShardConfig
    signatures: tuple[Signature, ...]

    @property
    def signers(self) -> frozenset[str]:
        return frozenset(sig.signer for sig in self.signatures)

    def validate(self, scheme: Any, previous: ShardConfig) -> None:
        """Check this entry legitimately succeeds ``previous``.

        ``scheme`` is anything exposing ``verify(signature, bytes)`` — the
        base (unscoped) signature scheme; configuration statements are
        shard-level, not object-level.

        Raises:
            ProtocolError: on any defect — wrong shard, non-consecutive
                epoch, excessive membership churn, or a signature set that
                is not a quorum of ``previous.members``.
        """
        cfg = self.config
        if cfg.shard != previous.shard:
            raise ProtocolError(
                f"entry for {cfg.shard!r} chained under {previous.shard!r}"
            )
        if cfg.epoch != previous.epoch + 1:
            raise ProtocolError(
                f"epoch {cfg.epoch} does not succeed {previous.epoch}"
            )
        if cfg.f != previous.f:
            raise ProtocolError("fault threshold may not change across epochs")
        # Churn bound: at most f members replaced per epoch, so the old and
        # new groups share >= 2f+1 replicas and state transfer always finds
        # a quorum of the old group inside the new one's read horizon.
        kept = len(set(previous.members) & set(cfg.members))
        if kept < len(previous.members) - previous.f:
            raise ProtocolError(
                f"{len(previous.members) - kept} members replaced in one "
                f"epoch; at most f={previous.f} allowed"
            )
        if len(self.signers) != len(self.signatures):
            raise ProtocolError("duplicate signers on directory entry")
        if not self.signers <= set(previous.members):
            raise ProtocolError("directory entry signed by non-members")
        if len(self.signers) < previous.quorum_size:
            raise ProtocolError(
                f"{len(self.signers)} signatures; need a quorum of "
                f"{previous.quorum_size} epoch-{previous.epoch} members"
            )
        statement = cfg.statement_bytes()
        for sig in self.signatures:
            if not scheme.verify(sig, statement):
                raise ProtocolError(
                    f"bad config signature from {sig.signer!r}"
                )

    def is_valid(self, scheme: Any, previous: ShardConfig) -> bool:
        try:
            self.validate(scheme, previous)
        except ProtocolError:
            return False
        return True

    def to_wire(self) -> dict[str, Any]:
        return {
            "config": self.config.to_wire(),
            "signatures": tuple(sig.to_wire() for sig in self.signatures),
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "DirectoryEntry":
        if not isinstance(wire, Mapping) or "config" not in wire:
            raise ProtocolError(f"malformed directory entry: {wire!r}")
        try:
            signatures = tuple(
                Signature.from_wire(s) for s in wire["signatures"]
            )
        except (CryptoError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed directory entry: {wire!r}") from exc
        return cls(
            config=ShardConfig.from_wire(wire["config"]), signatures=signatures
        )


class ShardDirectory:
    """A verified cache of every shard's configuration chain.

    Seeded with the genesis (epoch-0) configuration of each shard; grows
    only through :meth:`install`, which re-validates the whole link, so
    everything readable from a directory is authenticated.
    """

    def __init__(self, genesis: Mapping[str, ShardConfig], scheme: Any) -> None:
        for shard, config in genesis.items():
            if config.shard != shard:
                raise ProtocolError(
                    f"genesis for {shard!r} names shard {config.shard!r}"
                )
            if config.epoch != 0:
                raise ProtocolError(
                    f"genesis epoch for {shard!r} is {config.epoch}, not 0"
                )
        self._genesis = dict(genesis)
        self._entries: dict[str, list[DirectoryEntry]] = {
            shard: [] for shard in genesis
        }
        self._scheme = scheme

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self._genesis)

    def config(self, shard: str) -> ShardConfig:
        """The newest verified configuration of ``shard``."""
        chain = self._entries[shard]
        return chain[-1].config if chain else self._genesis[shard]

    def epoch(self, shard: str) -> int:
        return self.config(shard).epoch

    def chain(self, shard: str) -> tuple[DirectoryEntry, ...]:
        """Every installed entry, oldest first (genesis is implicit)."""
        return tuple(self._entries[shard])

    def historical_signers(self, shard: str) -> frozenset[str]:
        """All node ids that were members at any epoch up to the current one.

        These feed ``QuorumSystem.extra_signers`` so certificates formed
        under superseded memberships keep validating.
        """
        signers = set(self._genesis[shard].members)
        for entry in self._entries[shard]:
            signers.update(entry.config.members)
        return frozenset(signers)

    def quorums(self, shard: str) -> QuorumSystem:
        """The current epoch's quorum system with historical extra signers."""
        return self.config(shard).quorums(self.historical_signers(shard))

    def install(self, shard: str, entry: DirectoryEntry) -> bool:
        """Verify and adopt ``entry``; True if the directory advanced.

        Entries for already-known epochs are ignored (idempotent); an entry
        that does not validate against the current tip raises.
        """
        if shard not in self._entries:
            raise ProtocolError(f"unknown shard {shard!r}")
        if entry.config.epoch <= self.epoch(shard):
            return False
        entry.validate(self._scheme, self.config(shard))
        self._entries[shard].append(entry)
        return True

    def install_chain(
        self, shard: str, entries: Iterable[DirectoryEntry]
    ) -> int:
        """Install a (possibly partial) chain; returns entries adopted."""
        adopted = 0
        for entry in entries:
            if self.install(shard, entry):
                adopted += 1
        return adopted
