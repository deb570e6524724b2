"""Interned canonical encodings for repeatedly-encoded values.

The protocol encodes the same logical value many times: a ``PREPARE-REPLY``
statement is encoded once per signing replica, once per verifying role, and
once per signature inside every certificate validation; a value is hashed at
the client and again at every replica.  :func:`intern_encode` memoizes
``canonical_encode`` behind a bounded LRU so each distinct value is encoded
once per process, no matter how many roles touch it.

Correctness of the memo requires its key to distinguish every pair of values
with *different* canonical encodings.  Python equality is coarser than
canonical equality — ``True == 1 == 1.0`` all hash alike yet encode to
``t``, ``i1;`` and ``F3:1.0`` — but only because of bools, floats and the
containers that hold them.  So there are two kinds of key:

* a *plain* value — tuples whose leaves are exact ``str``, ``bytes``,
  ``int`` or ``None``, which is every protocol statement — is its own key:
  on those types Python equality is canonical equality, and the lookup
  builds nothing;
* any other value is keyed by :func:`_freeze`, which tags the types whose
  equality crosses encoding boundaries (bools and floats) and recurses
  through containers, inside a ``(_FROZEN, key)`` wrapper.  No plain value
  contains the ``_FROZEN`` sentinel, so the two kinds never collide.

Unhashable leaves (there are none in protocol statements, but application
values are arbitrary) fall back to a fresh encode.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.encoding.canonical import canonical_encode

__all__ = ["InternStats", "intern_encode", "intern_stats", "reset_interning", "set_interning_enabled"]


@dataclass
class InternStats:
    """Hit/miss counters for the statement-interning cache."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of interned lookups served from the memo (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0


_STATS = InternStats()
_MEMO: "OrderedDict[Any, bytes]" = OrderedDict()
_CAPACITY = 8192
_ENABLED = True
#: First element of every frozen key; equal to nothing a plain value holds.
_FROZEN = object()


def _is_plain(value: Any) -> bool:
    """Is ``value`` built only of tuples and exact str/bytes/int/None leaves?

    ``type(True) is int`` is False, so bools are not plain.
    """
    kind = value.__class__
    if kind is tuple:
        for item in value:
            kind = item.__class__
            if kind is tuple:
                if not _is_plain(item):
                    return False
            elif kind is not str and kind is not bytes and kind is not int and item is not None:
                return False
        return True
    return kind is str or kind is bytes or kind is int or value is None


def _freeze(value: Any) -> Any:
    """A hashable key that separates values with distinct canonical forms.

    Bools and floats are tagged because they compare equal to ints with
    different encodings; containers recurse so nested occurrences are caught.
    Tag tuples cannot collide with frozen user tuples: every frozen tuple is
    tagged ``"l"`` (and dicts ``"d"``), so the key space is prefix-disjoint.
    """
    kind = value.__class__
    if kind is str or kind is bytes or kind is int:
        return value
    if kind is tuple or kind is list:
        return ("l",) + tuple(_freeze(item) for item in value)
    if kind is bool:
        return ("b", value)
    if kind is float:
        return ("f", value)
    if kind is dict:
        return ("d",) + tuple(
            (key, _freeze(item)) for key, item in sorted(value.items())
        )
    # Rare leaves and subclasses of the above take the conservative path.
    if isinstance(value, bool):
        return ("b", bool(value))
    if isinstance(value, float):
        return ("f", float(value))
    if isinstance(value, (list, tuple)):
        return ("l",) + tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return ("d",) + tuple(
            (key, _freeze(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, (bytearray, memoryview)):
        return ("y", bytes(value))
    return value  # None, int, str, bytes: mutually unequal across these types


def intern_encode(value: Any) -> bytes:
    """``canonical_encode`` behind a bounded, type-exact memo."""
    if not _ENABLED:
        return canonical_encode(value)
    try:
        key = value if _is_plain(value) else (_FROZEN, _freeze(value))
        cached = _MEMO.get(key)
    except TypeError:
        _STATS.uncacheable += 1
        return canonical_encode(value)
    if cached is not None:
        _MEMO.move_to_end(key)
        _STATS.hits += 1
        return cached
    _STATS.misses += 1
    encoded = canonical_encode(value)
    _MEMO[key] = encoded
    while len(_MEMO) > _CAPACITY:
        _MEMO.popitem(last=False)
    return encoded


def intern_stats() -> InternStats:
    """The process-wide interning counters."""
    return _STATS


def reset_interning() -> None:
    """Drop the memo and zero the counters (benchmark isolation)."""
    _MEMO.clear()
    _STATS.reset()


def set_interning_enabled(enabled: bool) -> None:
    """Toggle the memo (the ablation arm of the wire-cost benchmark)."""
    global _ENABLED
    _ENABLED = enabled
