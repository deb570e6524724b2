"""Unit and property tests for the canonical encoding."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import message_wire_bytes
from repro.encoding import canonical_decode, canonical_encode
from repro.errors import EncodingError
from tests.test_wire_schema import SAMPLES


class TestScalars:
    def test_none(self):
        assert canonical_encode(None) == b"n"
        assert canonical_decode(b"n") is None

    def test_booleans(self):
        assert canonical_encode(True) == b"t"
        assert canonical_encode(False) == b"f"
        assert canonical_decode(b"t") is True
        assert canonical_decode(b"f") is False

    def test_int_zero(self):
        assert canonical_encode(0) == b"i0;"

    def test_int_negative(self):
        assert canonical_decode(canonical_encode(-12345)) == -12345

    def test_large_int(self):
        n = 10**50
        assert canonical_decode(canonical_encode(n)) == n

    def test_bool_and_int_encode_differently(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_str_utf8(self):
        value = "héllo ✓ wörld"
        assert canonical_decode(canonical_encode(value)) == value

    def test_bytes(self):
        value = bytes(range(256))
        assert canonical_decode(canonical_encode(value)) == value

    def test_str_and_bytes_distinct(self):
        assert canonical_encode("ab") != canonical_encode(b"ab")

    def test_float_round_trip(self):
        for value in (0.0, -1.5, 3.14159, 1e300, 1e-300):
            assert canonical_decode(canonical_encode(value)) == value


class TestContainers:
    def test_empty_list(self):
        assert canonical_decode(canonical_encode([])) == ()

    def test_list_and_tuple_encode_identically(self):
        assert canonical_encode([1, 2, 3]) == canonical_encode((1, 2, 3))

    def test_nested(self):
        value = (1, ("a", b"b", None), {"k": (True, False)})
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == (1, ("a", b"b", None), {"k": (True, False)})

    def test_dict_key_order_is_canonical(self):
        a = canonical_encode({"b": 1, "a": 2})
        b = canonical_encode({"a": 2, "b": 1})
        assert a == b

    def test_dict_round_trip(self):
        value = {"z": 1, "a": (2, 3), "m": {"nested": b"x"}}
        assert canonical_decode(canonical_encode(value)) == value


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(EncodingError):
            canonical_encode(object())

    def test_non_string_dict_key(self):
        with pytest.raises(EncodingError):
            canonical_encode({1: "a"})

    def test_trailing_bytes(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"nn")

    def test_truncated_input(self):
        encoded = canonical_encode(("abc", 123))
        with pytest.raises(EncodingError):
            canonical_decode(encoded[:-1])

    def test_empty_input(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"")

    def test_bad_tag(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"q")

    def test_unterminated_int(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"i42")

    def test_non_canonical_int_leading_zero(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"i042;")

    def test_non_canonical_negative_zero(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"i-0;")

    def test_unterminated_list(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"li1;")

    def test_dict_non_canonical_key_order_rejected(self):
        # d <"b":1> <"a":2> e — keys out of order must be rejected.
        bad = b"du1:bi1;u1:ai2;e"
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    def test_dict_duplicate_key_rejected(self):
        bad = b"du1:ai1;u1:ai2;e"
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    def test_invalid_utf8_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"u2:\xff\xfe")

    def test_huge_declared_length_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"b99999999999:")

    def test_non_canonical_length_rejected(self):
        for bad in (b"b01:x", b"b00:", b"u+1:x", b"b 1:x", b"b1_0:0123456789"):
            with pytest.raises(EncodingError):
                canonical_decode(bad)

    @pytest.mark.parametrize(
        "bad", [b"F4:1.00", b"F4: 1.0", b"F3:1e0", b"F2:1.", b"F6:+1.0e0", b"F8:Infinity"]
    )
    def test_non_canonical_float_rejected(self, bad):
        # Each parses as a float, but re-encodes to different bytes.
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    @pytest.mark.parametrize(
        "value", ["\ud800", ("ok", "lone \udfff"), {"\udc80": 1}, {"k": ["\ud83d"]}]
    )
    def test_lone_surrogate_is_an_encoding_error(self, value):
        with pytest.raises(EncodingError):
            canonical_encode(value)

    def test_int_beyond_the_str_digit_limit_is_an_encoding_error(self):
        with pytest.raises(EncodingError):
            canonical_encode(10**5000)
        with pytest.raises(EncodingError):
            canonical_decode(b"i" + b"9" * 5000 + b";")

    def test_deep_nesting_decodes_without_recursion(self):
        depth = 5000
        value = canonical_decode(b"l" * depth + b"e" * depth)
        for _ in range(depth - 1):
            (value,) = value
        assert value == ()
        with pytest.raises(EncodingError):
            canonical_decode(b"l" * depth + b"e" * (depth - 1))


class TestBytesLikeInput:
    ENCODED = canonical_encode(("a", b"bc", {"k": (1, b"")}))

    def test_memoryview_decodes_like_bytes(self):
        assert canonical_decode(memoryview(self.ENCODED)) == canonical_decode(self.ENCODED)

    def test_bytearray_decodes_to_bytes_leaves(self):
        decoded = canonical_decode(bytearray(self.ENCODED))
        assert decoded == ("a", b"bc", {"k": (1, b"")})
        assert type(decoded[1]) is bytes and type(decoded[2]["k"][1]) is bytes

    def test_memoryview_slice_decodes_its_own_bytes(self):
        framed = b"xx" + self.ENCODED + b"yy"
        view = memoryview(framed)[2:-2]
        assert canonical_decode(view) == canonical_decode(self.ENCODED)

    @pytest.mark.parametrize("data", ["n", 7, None, [110], 1.5])
    def test_non_bytes_like_is_an_encoding_error(self, data):
        with pytest.raises(EncodingError):
            canonical_decode(data)


# -- the canonical property as the oracle --------------------------------------
#
# Every input either raises EncodingError, or decodes to ``v`` whose encoding
# is the input, byte for byte; the interned encoding of ``v`` agrees.  This
# needs no second codec to compare with, so it also guards the rejections:
# a decoder that let a non-canonical spelling through would fail the equality.

#: Bytes that make mutations land on tags, digits, separators and UTF-8.
_MUTATION_ALPHABET = b"ntfiubldeF0123456789:;-.+ \xc3\xa9\xff"


def _random_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.55:
        return rng.choice(
            [
                None,
                True,
                False,
                rng.randint(-(10**6), 10**6),
                rng.randint(0, 1100),
                "".join(chr(rng.randint(32, 0x2FF)) for _ in range(rng.randint(0, 5))),
                bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 5))),
                rng.choice([0.0, -1.5, 1e300, 3.25, float("inf")]),
            ]
        )
    if roll < 0.8:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4)))
    return {
        "".join(rng.choice("abé✓") for _ in range(rng.randint(0, 3))): _random_value(
            rng, depth + 1
        )
        for _ in range(rng.randint(0, 4))
    }


def _misspell(rng: random.Random, value) -> bytes:
    """``value`` spelled almost canonically: dict items shuffled and now and
    then duplicated, and a leaf now and then respelled (a leading zero on a
    length or an int, a sign, another text for the same float)."""
    if isinstance(value, dict):
        items = list(value.items())
        if items and rng.random() < 0.3:
            items.append(rng.choice(items))
        rng.shuffle(items)
        return b"d" + b"".join(canonical_encode(k) + _misspell(rng, v) for k, v in items) + b"e"
    if isinstance(value, tuple):
        return b"l" + b"".join(_misspell(rng, item) for item in value) + b"e"
    encoded = canonical_encode(value)
    if rng.random() < 0.7:
        return encoded
    if type(value) is float:
        text = rng.choice(
            [f"{value:.3f}", f"{value:e}", f" {value!r}", f"+{value!r}", f"{value!r}0"]
        ).encode()
        return b"F%d:%s" % (len(text), text)
    if type(value) is int:
        return rng.choice([b"i0%d;", b"i+%d;", b"i-0%d;"]) % abs(value)
    if type(value) in (str, bytes):
        return encoded[:1] + b"0" + encoded[1:]
    return encoded


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        op = rng.randrange(4)
        if op == 0 and out:  # overwrite a byte
            out[min(at, len(out) - 1)] = rng.choice(_MUTATION_ALPHABET)
        elif op == 1:  # insert a byte
            out.insert(at, rng.choice(_MUTATION_ALPHABET))
        elif op == 2:  # truncate
            del out[at:]
        else:  # duplicate a short run elsewhere
            start = rng.randrange(len(out) + 1)
            out[at:at] = out[start : start + rng.randint(1, 8)]
    return bytes(out)


def test_mutated_encodings_are_rejected_or_canonical():
    """Seeded: the 40 kinds' pinned samples and random nested values,
    misspelled, byte-mutated, or both."""
    samples = [canonical_decode(message_wire_bytes(m)) for m in SAMPLES.values()]
    rng = random.Random(20060625)
    verdicts = {"accepted": 0, "rejected": 0}
    for case in range(8000):
        value = rng.choice(samples) if case % 2 else _random_value(rng)
        data = _misspell(rng, value) if case % 3 else canonical_encode(value)
        if case % 5 < 2:
            data = _mutate(rng, data)
        try:
            decoded = canonical_decode(data)
        except EncodingError:
            verdicts["rejected"] += 1
            continue
        verdicts["accepted"] += 1
        assert canonical_encode(decoded) == data, data
    # Both verdicts are exercised in bulk, so neither half is vacuous.
    assert min(verdicts.values()) > 2000, verdicts


# -- property-based -----------------------------------------------------------

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=25,
)


@given(values)
def test_round_trip_property(value):
    assert canonical_decode(canonical_encode(value)) == value


@given(values, values)
def test_injective_property(a, b):
    """Distinct values have distinct encodings (lists/tuples identified)."""
    ea, eb = canonical_encode(a), canonical_encode(b)
    if ea == eb:
        assert canonical_decode(ea) == canonical_decode(eb)


@given(values)
def test_deterministic_property(value):
    assert canonical_encode(value) == canonical_encode(value)


@given(st.binary(max_size=60))
def test_decoder_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode or raise EncodingError, never crash."""
    try:
        canonical_decode(data)
    except EncodingError:
        pass
