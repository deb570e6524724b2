"""Open-loop load profiles and service-level objectives (E21).

A :class:`LoadProfile` declares a production-shaped workload: arrivals are an
open-loop Poisson process (requests keep coming whether or not earlier ones
finished — the regime where saturation shows up, unlike the closed-loop
scripts everywhere else in the repo), object popularity is zipfian, and the
client population is large and mostly cold.  :class:`BurstPhase` makes the
rate piecewise so sustained and burst profiles share one vocabulary.

:class:`SloTarget` declares the latency/completion objectives a run is
judged against, and :class:`LoadReport` carries the judged result plus the
identity-layer memory accounting the E21 experiments compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SimulationError

__all__ = [
    "BurstPhase",
    "LoadProfile",
    "SloTarget",
    "SloVerdict",
    "LoadReport",
    "DEFAULT_SLOS",
]


@dataclass(frozen=True)
class BurstPhase:
    """A rate multiplier active during ``[start, start + duration)``."""

    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0 or self.multiplier <= 0:
            raise SimulationError(f"invalid burst phase {self!r}")


@dataclass(frozen=True)
class LoadProfile:
    """One open-loop workload declaration.

    Attributes:
        rate: base arrival rate (operations per second).
        duration: length of the arrival window, seconds.
        identities: size of the client-identity universe.
        objects: number of distinct objects (zipf-ranked by popularity).
        write_fraction: probability an arrival is a write.
        zipf_skew: zipf exponent for object popularity (0 = uniform).
        seed: generator seed; identical seeds yield identical schedules.
        namespace: id prefix for generated identities (admitted wholesale
            via ``KeyRegistry.open_namespace`` / ``NamespaceWriters``).
        identity_policy: ``"sequential"`` walks the universe round-robin
            (maximises distinct identities); ``"uniform"`` draws uniformly.
        identity_offset: first identity index (lets successive runs cover
            disjoint identity ranges).
        bursts: rate multipliers overlaying the base rate.
        max_arrivals: optional hard cap on generated arrivals.
    """

    rate: float = 200.0
    duration: float = 10.0
    identities: int = 10_000
    objects: int = 64
    write_fraction: float = 0.7
    zipf_skew: float = 1.1
    seed: int = 0
    namespace: str = "load:"
    identity_policy: str = "sequential"
    identity_offset: int = 0
    bursts: tuple[BurstPhase, ...] = ()
    max_arrivals: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise SimulationError(f"rate must be positive, got {self.rate}")
        if self.duration <= 0:
            raise SimulationError(
                f"duration must be positive, got {self.duration}"
            )
        if self.identities < 1 or self.objects < 1:
            raise SimulationError(
                f"need at least one identity and one object "
                f"({self.identities}, {self.objects})"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise SimulationError(
                f"write_fraction {self.write_fraction} out of range"
            )
        if self.zipf_skew < 0:
            raise SimulationError(f"zipf_skew must be >= 0, got {self.zipf_skew}")
        if self.identity_policy not in ("sequential", "uniform"):
            raise SimulationError(
                f"unknown identity_policy {self.identity_policy!r}"
            )
        if self.identity_offset < 0:
            raise SimulationError("identity_offset must be >= 0")

    def rate_at(self, t: float) -> float:
        """The arrival rate in effect at offset ``t`` (base × bursts)."""
        rate = self.rate
        for burst in self.bursts:
            if burst.start <= t < burst.start + burst.duration:
                rate *= burst.multiplier
        return rate

    def expected_arrivals(self) -> float:
        """Mean arrivals over the window (the Poisson intensity integral)."""
        total = self.rate * self.duration
        for burst in self.bursts:
            span = min(burst.duration, max(0.0, self.duration - burst.start))
            total += self.rate * (burst.multiplier - 1.0) * span
        return total

    @classmethod
    def sustained(cls, rate: float, duration: float, **kwargs: Any) -> "LoadProfile":
        """Flat rate for the whole window."""
        return cls(rate=rate, duration=duration, **kwargs)

    @classmethod
    def bursty(
        cls,
        rate: float,
        duration: float,
        *,
        burst_multiplier: float = 4.0,
        burst_fraction: float = 0.2,
        **kwargs: Any,
    ) -> "LoadProfile":
        """A sustained base with one centred burst spike."""
        burst_len = duration * burst_fraction
        start = (duration - burst_len) / 2.0
        return cls(
            rate=rate,
            duration=duration,
            bursts=(BurstPhase(start, burst_len, burst_multiplier),),
            **kwargs,
        )


@dataclass(frozen=True)
class SloTarget:
    """One objective: ``metric`` must stay at or below ``limit``.

    Metrics: ``write.p50`` / ``write.p95`` / ``write.p99`` / ``write.mean``
    (same for ``read``) in seconds, or ``completion`` — the fraction of
    arrivals that completed, judged against ``limit`` as a *floor*.
    """

    metric: str
    limit: float


#: Default SLO battery: generous enough for an unsaturated reliable-network
#: run, tight enough that an overdriven run fails visibly.
DEFAULT_SLOS = (
    SloTarget("write.p95", 0.5),
    SloTarget("read.p95", 0.5),
    SloTarget("completion", 0.99),
)


@dataclass(frozen=True)
class SloVerdict:
    """One judged objective."""

    metric: str
    limit: float
    observed: float
    ok: bool

    def to_wire(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "limit": self.limit,
            "observed": self.observed,
            "ok": self.ok,
        }


@dataclass
class LoadReport:
    """Everything one open-loop run produced.

    ``identity`` holds the E21 memory accounting: resident entries and
    eviction counters for every identity-layer cache (registry secrets,
    MAC session keys, per-client replica state).
    ``ops_digest`` is a running hash over (client, object, kind, result)
    in completion order — two runs that behaved identically have equal
    digests, which is how the budgeted/unbounded differential test checks
    "identical op results" without storing every result.
    """

    offered_rate: float
    duration: float
    arrivals: int
    completed: int
    failed: int
    distinct_identities: int
    elapsed: float
    achieved_throughput: float
    write_p50: float
    write_p95: float
    write_p99: float
    read_p50: float
    read_p95: float
    read_p99: float
    ops_digest: str
    predicted_capacity: float
    utilization: float
    identity: dict[str, int] = field(default_factory=dict)
    slos: tuple[SloVerdict, ...] = ()

    @property
    def completion_fraction(self) -> float:
        return self.completed / self.arrivals if self.arrivals else 1.0

    @property
    def slo_ok(self) -> bool:
        return all(v.ok for v in self.slos)

    def to_wire(self) -> dict[str, Any]:
        return {
            "offered_rate": self.offered_rate,
            "duration": self.duration,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "failed": self.failed,
            "distinct_identities": self.distinct_identities,
            "elapsed": self.elapsed,
            "achieved_throughput": self.achieved_throughput,
            "write_p50": self.write_p50,
            "write_p95": self.write_p95,
            "write_p99": self.write_p99,
            "read_p50": self.read_p50,
            "read_p95": self.read_p95,
            "read_p99": self.read_p99,
            "ops_digest": self.ops_digest,
            "predicted_capacity": self.predicted_capacity,
            "utilization": self.utilization,
            "identity": dict(self.identity),
            "slos": [v.to_wire() for v in self.slos],
            "slo_ok": self.slo_ok,
            "completion_fraction": self.completion_fraction,
        }
