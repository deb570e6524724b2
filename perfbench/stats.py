"""Percentiles, the ten-samples-beyond rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: The tail levels a report may quote, lowest first.
LADDER = (0.75, 0.90, 0.95, 0.99, 0.999)
#: A percentile is quoted only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """Nearest-rank position (1-based) of quantile ``q`` among ``n`` samples."""
    return max(1, math.ceil(round(q * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``values`` need not be sorted."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank position of ``q``."""
    return n - _rank(n, q)


def supported_level(n: int) -> Optional[float]:
    """The highest ladder level with at least ten of ``n`` samples beyond it."""
    best = None
    for q in LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def level_name(q: float) -> str:
    """``0.95 -> "p95"``, ``0.999 -> "p99.9"``."""
    return "p" + f"{q * 100:.1f}".rstrip("0").rstrip(".")


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
