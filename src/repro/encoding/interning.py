"""A counted pass-through kept for the benchmark's trace target.

The process-wide statement memo that lived here is gone.  Each certificate
stashes its canonical bytes once (:func:`repro.encoding.encode_once`) and
every statement that embeds it splices those bytes
(:class:`repro.encoding.Encoded`), so what the memo used to save is no
longer encoded twice, and most of what it kept (statements carrying a
fresh nonce or a new timestamp) could never be asked for again.

``perfbench`` still imports the three names below: it traces
:func:`intern_encode` and reads :func:`intern_stats` for its
``encoding.intern_hit_rate`` metric.  They stay until that benchmark drops
them; nothing under ``repro`` calls :func:`intern_encode`, so the counters
read zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.encoding.canonical import canonical_encode

__all__ = ["InternStats", "intern_encode", "intern_stats", "reset_interning"]


@dataclass
class InternStats:
    """Calls to :func:`intern_encode`: every one is a miss."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Always 0: there is no memo to hit."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


_STATS = InternStats()


def intern_encode(value: Any) -> bytes:
    """``canonical_encode(value)``, counted as a miss."""
    _STATS.misses += 1
    return canonical_encode(value)


def intern_stats() -> InternStats:
    """The process-wide pass-through counters."""
    return _STATS


def reset_interning() -> None:
    """Zero the counters (benchmark isolation)."""
    _STATS.reset()
