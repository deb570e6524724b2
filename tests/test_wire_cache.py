"""Property tests for the encode-once wire cache and statement interning.

The caches are pure memoization: their one correctness obligation is that
cached bytes are *identical* to a fresh ``canonical_encode`` of the same
value.  Hypothesis drives randomized values — including the adversarial
``True == 1 == 1.0`` aliasing family, whose members compare and hash equal
yet encode differently — through both paths and demands byte equality.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    ReadTsRequest,
    message_to_wire,
    message_wire_bytes,
    wire_cache_stats,
)
from repro.encoding import (
    canonical_encode,
    intern_encode,
    intern_stats,
    reset_interning,
)

#: Every value the canonical encoding supports (dict keys must be str).
#: Finite floats only: the canonical form round-trips via repr, and the
#: interning memo must distinguish 1.0 from 1 — not relitigate NaN identity.
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda leaf: st.lists(leaf, max_size=4)
    | st.dictionaries(st.text(max_size=8), leaf, max_size=4),
    max_leaves=12,
)


class TestInterningMatchesFreshEncode:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_intern_encode_equals_canonical_encode(self, value):
        assert intern_encode(value) == canonical_encode(value)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_repeat_lookup_returns_identical_bytes(self, value):
        assert intern_encode(value) == intern_encode(value)

    def test_aliasing_family_kept_distinct(self):
        # True == 1 == 1.0 (and False == 0 == 0.0) hash alike but have
        # different canonical forms; the memo must never cross them.
        reset_interning()
        for family in ([True, 1, 1.0], [False, 0, 0.0]):
            encodings = [intern_encode(v) for v in family]
            assert len(set(encodings)) == len(family)
            for value, encoded in zip(family, encodings):
                assert encoded == canonical_encode(value)

    def test_nested_aliases_kept_distinct(self):
        reset_interning()
        nests = [[True], [1], [1.0], {"k": True}, {"k": 1}, {"k": 1.0}]
        encodings = [intern_encode(v) for v in nests]
        assert len(set(encodings)) == len(nests)
        for value, encoded in zip(nests, encodings):
            assert encoded == canonical_encode(value)

    @pytest.mark.parametrize(
        "family",
        [
            [("l", 1), [1]],
            [(1,), (True,), (1.0,)],
            [{"a": 1}, (("a", 1),)],
        ],
    )
    @pytest.mark.parametrize("nest", [lambda v: v, lambda v: (v,)], ids=["top", "nested"])
    def test_plain_and_frozen_keys_never_collide(self, family, nest):
        # A plain tuple is its own memo key; any other value is keyed by its
        # frozen form.  Neither kind may answer for the other, in either
        # order of first use.
        family = [nest(value) for value in family]
        for order in (family, family[::-1]):
            reset_interning()
            encodings = [intern_encode(value) for value in order]
            assert encodings == [canonical_encode(value) for value in order]
            assert len(set(encodings)) == len(order)
            assert intern_stats().misses == len(order)
            assert [intern_encode(value) for value in order] == encodings
            assert intern_stats().hits == len(order)

    def test_unhashable_leaf_falls_back_to_fresh_encode(self):
        reset_interning()

        class Weird(str):
            __hash__ = None  # hashable nowhere, still encodes as str

        value = [Weird("x")]
        assert intern_encode(value) == canonical_encode(value)
        assert intern_stats().uncacheable == 1

    def test_hits_are_counted(self):
        reset_interning()
        intern_encode(("s", 1))
        intern_encode(("s", 1))
        assert intern_stats().hits == 1
        assert intern_stats().misses == 1
        assert intern_stats().hit_rate == 0.5


class TestWireCacheMatchesFreshEncode:
    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_cached_bytes_equal_fresh_encode(self, nonce):
        message = ReadTsRequest(nonce=nonce)
        first = message_wire_bytes(message)
        assert first == canonical_encode(message_to_wire(message))
        # Second call is served from the instance cache: same bytes, one hit.
        hits_before = wire_cache_stats().hits
        assert message_wire_bytes(message) == first
        assert wire_cache_stats().hits == hits_before + 1

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_distinct_instances_cache_independently(self, nonce):
        a = ReadTsRequest(nonce=nonce)
        b = ReadTsRequest(nonce=nonce + b"x")
        assert message_wire_bytes(a) == canonical_encode(message_to_wire(a))
        assert message_wire_bytes(b) == canonical_encode(message_to_wire(b))
        assert message_wire_bytes(a) != message_wire_bytes(b)
