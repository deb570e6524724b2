"""Operation-level metrics collected during simulation runs.

The benchmark harness reports exactly the quantities the paper's evaluation
discusses: phases per operation (E1), messages and bytes per operation (E2),
latency in network round-trips, fast-path rates for the optimized protocol
(E10), signature counts (E4), verified signatures per operation (E4d) and
storage counters (E16).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.core.verification import VerificationStats
from repro.obs.instrumentation import Instrumentation
from repro.storage import StorageStats

__all__ = ["OperationSample", "Summary", "MetricsCollector"]


@dataclass(frozen=True)
class OperationSample:
    """One completed client operation."""

    client: str
    kind: str  # "read" | "write"
    phases: int
    latency: float
    fast_path: bool = False
    fell_back: bool = False


@dataclass(frozen=True)
class Summary:
    """Summary statistics over a list of samples."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def of(cls, values: list[float]) -> "Summary":
        if not values:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, maximum=0.0)
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            maximum=ordered[-1],
        )


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


@dataclass
class MetricsCollector:
    """Accumulates operation samples for one simulation run.

    Stats sources (verification, storage) are attached through, and read
    back from, the collector's :class:`~repro.obs.Instrumentation` handle.
    """

    samples: list[OperationSample] = field(default_factory=list)
    retransmit_ticks: int = 0
    #: The stats-source registry (and span/histogram sink) for this run.
    #: The cluster harness shares its own handle; a bare collector gets a
    #: private disabled one, which still registers sources.
    instrumentation: Instrumentation = field(default_factory=Instrumentation.off)

    @property
    def verification(self) -> Optional[VerificationStats]:
        """Counters of the deployment's shared verification pipeline."""
        return self.instrumentation.source("verification")

    @property
    def storage(self) -> dict[str, StorageStats]:
        """Per-replica storage counters (log appends, fsyncs, snapshots)."""
        return self.instrumentation.source("storage") or {}

    def record(self, sample: OperationSample) -> None:
        self.samples.append(sample)

    def verified_signatures_per_op(self) -> float:
        """Backend signature verifications per completed operation (E4d)."""
        if self.verification is None or not self.samples:
            return 0.0
        return self.verification.signature_checks / len(self.samples)

    # -- storage / durability (E16) ---------------------------------------

    def storage_totals(self) -> StorageStats:
        """Sum of every attached replica's storage counters."""
        total = StorageStats()
        for stats in self.storage.values():
            total.add(stats)
        return total

    def log_appends_per_op(self) -> float:
        """WAL records appended (across all replicas) per completed op."""
        if not self.storage or not self.samples:
            return 0.0
        return self.storage_totals().appends / len(self.samples)

    def fsyncs_per_op(self) -> float:
        """fsync calls (across all replicas) per completed op."""
        if not self.storage or not self.samples:
            return 0.0
        return self.storage_totals().fsyncs / len(self.samples)

    # -- views ----------------------------------------------------------------

    def by_kind(self, kind: str) -> list[OperationSample]:
        return [s for s in self.samples if s.kind == kind]

    def phase_histogram(self, kind: Optional[str] = None) -> Counter:
        """phases -> number of operations (experiment E1's row data)."""
        selected = self.samples if kind is None else self.by_kind(kind)
        return Counter(s.phases for s in selected)

    def latency_summary(self, kind: Optional[str] = None) -> Summary:
        selected = self.samples if kind is None else self.by_kind(kind)
        return Summary.of([s.latency for s in selected])

    def phases_summary(self, kind: Optional[str] = None) -> Summary:
        selected = self.samples if kind is None else self.by_kind(kind)
        return Summary.of([float(s.phases) for s in selected])

    def fast_path_rate(self) -> float:
        """Fraction of writes that skipped the explicit phase 2 (E10)."""
        writes = self.by_kind("write")
        if not writes:
            return 0.0
        return sum(1 for s in writes if s.fast_path) / len(writes)

    def fallback_rate(self) -> float:
        """Fraction of writes that abandoned the fast path for the signed
        protocol (the fastpath variant's E20 counterpart to E10)."""
        writes = self.by_kind("write")
        if not writes:
            return 0.0
        return sum(1 for s in writes if s.fell_back) / len(writes)

    def per_client_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for sample in self.samples:
            counts[sample.client] += 1
        return dict(counts)

    @property
    def operations(self) -> int:
        return len(self.samples)
