"""Canonical, deterministic, round-trippable value encoding.

Signatures in BFT-BC cover protocol statements such as
``("PREPARE-REPLY", ts, h)``.  For a signature produced at replica *r* to be
verifiable at any other node, both nodes must derive exactly the same bytes
from the same logical statement.  This module defines that byte format.

The format is a superset of bencoding, extended with the extra types the
protocol needs.  Every value is self-delimiting, so encodings compose and
concatenations parse unambiguously:

========  =======================================  ==========================
tag       type                                     encoding
========  =======================================  ==========================
``n``     None                                     ``n``
``t``     True                                     ``t``
``f``     False                                    ``f``
``i``     int                                      ``i<decimal>;``
``u``     str (UTF-8)                              ``u<len>:<bytes>``
``b``     bytes                                    ``b<len>:<bytes>``
``l``     list / tuple                             ``l<items>e``
``d``     dict (str keys, sorted)                  ``d<k1><v1>...e``
``F``     float                                    ``F<len>:<repr bytes>``
========  =======================================  ==========================

Dictionaries are encoded with keys sorted by their UTF-8 bytes, which is what
makes the format canonical.  Lists and tuples encode identically (decoding
always yields tuples, keeping decoded values hashable).

Floats are included for completeness (metrics snapshots); protocol statements
themselves never contain floats.  A float body is ``repr(value)``, and the
decoder accepts a body only if it equals ``repr(float(body))``: ``F4:1.00``,
``F3:1e0`` or ``F8:Infinity`` would each re-encode to different bytes, so
they are rejected like a non-canonical int or length.

Decoding is strict in the same way throughout: every byte string the decoder
accepts is the encoding of the value it returns, so ``canonical_encode(
canonical_decode(data)) == data`` whenever the decode succeeds.  Anything the
codec refuses, in either direction, raises :class:`~repro.errors.EncodingError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import EncodingError

__all__ = [
    "canonical_encode",
    "canonical_decode",
    "Encoded",
    "encode_once",
    "encode_dict",
    "EncodeStats",
    "encode_stats",
]

# A conservative bound that protects decoders from hostile length prefixes.
_MAX_LENGTH = 1 << 30

# Tag bytes as the ints ``data[offset]`` yields.
_NONE, _TRUE, _FALSE, _INT = b"ntfi"
_STR, _BYTES, _FLOAT = b"ubF"
_LIST, _DICT, _END = b"lde"


@dataclass
class EncodeStats:
    """Process-wide ``canonical_encode`` counters.

    perfbench and the pinned kernel counts read these to count how much
    the system actually serialises: ``calls`` encodes, and ``bytes_out``
    the bytes those encodes produced themselves.  Bytes stashed by
    :func:`encode_once` show up here as calls that never happen, and an
    :class:`Encoded` piece spliced into a larger value is counted once, by
    the encode that produced it, not again by each encode that splices it.
    """

    calls: int = 0
    bytes_out: int = 0

    def reset(self) -> None:
        self.calls = 0
        self.bytes_out = 0


_STATS = EncodeStats()


def encode_stats() -> EncodeStats:
    """The process-wide encode counters (reset between benchmark arms)."""
    return _STATS


class Encoded:
    """Bytes already in canonical form, spliced verbatim by :func:`canonical_encode`.

    The format is self-delimiting, so ``canonical_encode(("tag", Encoded(
    canonical_encode(x))))`` equals ``canonical_encode(("tag", x))``: a
    statement embedding a certificate splices the certificate's stashed
    bytes instead of re-encoding it.  Only code that holds the canonical
    bytes of a value wraps them; the decoder never produces one.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


#: Bytes the encode in progress spliced from :class:`Encoded` pieces.
_spliced = 0

#: The instance attribute :func:`encode_once` stashes bytes under.
_STASH = "_canonical_bytes"


def encode_once(instance: Any, encode: Callable[[Any], bytes]) -> bytes:
    """``encode(instance)``, computed once per instance and stashed on it.

    For immutable objects whose canonical bytes are needed repeatedly (a
    message sent on every link of a fan-out, a certificate embedded in every
    reply a replica sends): the first call stores the bytes in the
    instance's ``__dict__``, which a frozen dataclass's own ``__setattr__``
    does not guard and its ``__eq__``, ``__hash__`` and ``repr`` never read.
    """
    stashed = instance.__dict__.get(_STASH)
    if stashed is None:
        stashed = instance.__dict__[_STASH] = encode(instance)
    return stashed


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` to its unique canonical byte representation.

    Raises:
        EncodingError: if ``value`` (or anything nested inside it) is not one
            of the supported types, a dict has non-string keys, or a string
            cannot be encoded as UTF-8 (a lone surrogate).
    """
    global _spliced
    _spliced = 0
    parts: list[bytes] = []
    try:
        _encode_into(value, parts)
    except ValueError as exc:  # a lone surrogate; an int past str()'s digit limit
        raise EncodingError(f"cannot canonically encode: {exc}") from exc
    return _counted(parts)


def encode_dict(keys: Sequence[bytes], values: Sequence[Any]) -> bytes:
    """The canonical bytes of a dict with a fixed key set.

    ``keys`` are the keys' canonical encodings, already in canonical (UTF-8
    sorted) order, and ``values`` the matching values.  A record type whose
    keys never change — a message kind's wire layout — sorts and encodes
    them once, where :func:`canonical_encode` of the dict would redo both on
    every call.  The result is the same bytes.
    """
    global _spliced
    _spliced = 0
    parts: list[bytes] = [b"d"]
    try:
        for key, value in zip(keys, values):
            parts.append(key)
            _encode_into(value, parts)
    except ValueError as exc:
        raise EncodingError(f"cannot canonically encode: {exc}") from exc
    parts.append(b"e")
    return _counted(parts)


def _counted(parts: list[bytes]) -> bytes:
    encoded = b"".join(parts)
    _STATS.calls += 1
    _STATS.bytes_out += len(encoded) - _spliced
    return encoded


def _encode_into(value: Any, parts: list[bytes]) -> None:
    # Protocol values are tuples of bytes, str and int: those exact types are
    # dispatched first, on identity of the class, without an isinstance chain.
    kind = value.__class__
    if kind is bytes:
        parts.append(b"b%d:" % len(value))
        parts.append(value)
    elif kind is str:
        raw = value.encode("utf-8")
        parts.append(b"u%d:" % len(raw))
        parts.append(raw)
    elif kind is tuple:
        parts.append(b"l")
        for item in value:
            _encode_into(item, parts)
        parts.append(b"e")
    elif kind is int:
        parts.append(b"i%d;" % value)
    else:
        _encode_rare(value, parts)


def _encode_rare(value: Any, parts: list[bytes]) -> None:
    """Spliced pieces, None, bools, dicts, lists, floats, subclasses and
    other bytes-likes."""
    global _spliced
    if value.__class__ is Encoded:
        parts.append(value.data)
        _spliced += len(value.data)
    elif value is None:
        parts.append(b"n")
    elif value is True:
        parts.append(b"t")
    elif value is False:
        parts.append(b"f")
    elif isinstance(value, dict):
        parts.append(b"d")
        try:
            # str.encode is the UTF-8 sort key, and refuses non-str keys.
            keys = sorted(value, key=str.encode)
        except TypeError as exc:
            raise EncodingError(
                f"dict keys must be str, got {sorted(type(k).__name__ for k in value)}"
            ) from exc
        for key in keys:
            _encode_into(key, parts)
            _encode_into(value[key], parts)
        parts.append(b"e")
    elif isinstance(value, int):
        parts.append(b"i%d;" % value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(b"u%d:" % len(raw))
        parts.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        parts.append(b"b%d:" % len(raw))
        parts.append(raw)
    elif isinstance(value, (list, tuple)):
        parts.append(b"l")
        for item in value:
            _encode_into(item, parts)
        parts.append(b"e")
    elif isinstance(value, float):
        raw = repr(value).encode("ascii")
        parts.append(b"F%d:" % len(raw))
        parts.append(raw)
    else:
        raise EncodingError(f"cannot canonically encode {type(value).__name__!r}")


def canonical_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`canonical_encode`.

    Lists and tuples both decode to tuples.  The entire input must be
    consumed; trailing bytes are an error.  Any bytes-like input (a
    ``bytearray``, a ``memoryview``) is read as the bytes it holds.

    Raises:
        EncodingError: if ``data`` is not bytes-like or not a valid canonical
            encoding.
    """
    if data.__class__ is not bytes:
        try:
            data = bytes(memoryview(data))
        except TypeError:
            raise EncodingError(
                f"cannot decode {type(data).__name__!r}, need bytes"
            ) from None
    size = len(data)
    offset = 0
    # One loop over an explicit stack instead of one call per value: each
    # open container is a list of the items decoded so far.
    items: Any = None  # the innermost open container's items; None at top level
    outer: list[Any] = []  # the enclosing containers' ``items``
    is_dict: list[bool] = []  # per open container, innermost last
    try:
        while True:
            if offset >= size:
                raise EncodingError("truncated canonical encoding")
            tag = data[offset]
            if tag == _STR or tag == _BYTES or tag == _FLOAT:
                colon = data.find(b":", offset + 1)
                if colon < 0:
                    raise EncodingError("missing length separator")
                body = data[offset + 1 : colon]
                # Canonical decimal: ASCII digits, no leading b"0" (48).
                if not body.isdigit() or (body[0] == 48 and body != b"0"):
                    raise EncodingError(f"invalid length {body!r}")
                length = int(body)
                if length > _MAX_LENGTH:
                    raise EncodingError(f"declared length {length} exceeds limit")
                colon += 1
                offset = colon + length
                if offset > size:
                    raise EncodingError("truncated sized value")
                if tag == _BYTES:
                    value = data[colon:offset]
                elif tag == _STR:
                    value = data[colon:offset].decode("utf-8")
                else:
                    text = data[colon:offset].decode("ascii")
                    value = float(text)
                    if repr(value) != text:
                        raise EncodingError(f"non-canonical float body {text!r}")
            elif tag == _LIST or tag == _DICT:
                outer.append(items)
                items = []
                is_dict.append(tag == _DICT)
                offset += 1
                continue
            elif tag == _END and items is not None:
                offset += 1
                if is_dict.pop():
                    keys = items[0::2]
                    if len(items) & 1:
                        raise EncodingError("dict key without a value")
                    previous = None
                    for key in keys:
                        # Decoded strings hold no lone surrogates, so code
                        # point order is UTF-8 byte order.
                        if key.__class__ is not str:
                            raise EncodingError("dict key is not a string")
                        if previous is not None and key <= previous:
                            raise EncodingError("dict keys not in canonical order")
                        previous = key
                    value = dict(zip(keys, items[1::2]))
                else:
                    value = tuple(items)
                items = outer.pop()
            elif tag == _INT:
                stop = data.find(b";", offset + 1)
                if stop < 0:
                    raise EncodingError("unterminated int")
                body = data[offset + 1 : stop]
                digits = body[1:] if body[:1] == b"-" else body
                if not digits.isdigit() or (digits[0] == 48 and body != b"0"):
                    raise EncodingError(f"invalid int body {body!r}")
                value = int(body)
                offset = stop + 1
            elif tag == _NONE:
                value = None
                offset += 1
            elif tag == _TRUE:
                value = True
                offset += 1
            elif tag == _FALSE:
                value = False
                offset += 1
            else:
                raise EncodingError(
                    f"unknown canonical tag {bytes([tag])!r} at offset {offset}"
                )
            if items is None:
                if offset != size:
                    raise EncodingError(
                        f"trailing bytes after canonical value at offset {offset}"
                    )
                return value
            items.append(value)
    except ValueError as exc:  # bad UTF-8 or ASCII, or int()/float() refused a body
        raise EncodingError(f"invalid canonical body: {exc}") from exc
