"""Byte-exact tuple serialization.

The paper's motivation for unnesting stresses that "ill-known data needs
more storage space than crisp data does, [so] it takes more I/O time to
transfer".  We therefore serialize tuples to real bytes: a trapezoid costs
four doubles where a crisp number costs one, discrete distributions grow
with their element count, and the experiments that sweep *tuple size*
(Table 4) pad tuples to a declared fixed width exactly like the paper's
128-2048 byte records.

Record layout::

    [8-byte degree] [value]* [padding]
    value := tag(1) payload
      'N' f64                      crisp number
      'L' u16 utf8                 crisp label
      'T' f64 f64 f64 f64          trapezoid a,b,c,d
      'D' u16 (tag payload f64)*   discrete distribution
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from ..data.schema import Schema
from ..data.tuples import FuzzyTuple
from ..fuzzy.crisp import CrispLabel, CrispNumber
from ..fuzzy.discrete import DiscreteDistribution
from ..fuzzy.distribution import Distribution
from ..fuzzy.trapezoid import TrapezoidalNumber

_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")
#: A trapezoid payload's support ``(a, d)``, skipping its core ``b, c``.
_SUPPORT = struct.Struct(">d16xd")
_N, _T, _L, _D = ord("N"), ord("T"), ord("L"), ord("D")
_NEG_ZERO = _F64.pack(-0.0)


class SerializationError(ValueError):
    """Raised for unencodable values or undersized fixed tuple widths."""


def encode_value(value: Distribution) -> bytes:
    """Serialize one distribution to its tagged byte form."""
    if isinstance(value, CrispNumber):
        return b"N" + _F64.pack(value.value)
    if isinstance(value, CrispLabel):
        raw = value.value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise SerializationError("label longer than 65535 bytes")
        return b"L" + _U16.pack(len(raw)) + raw
    if isinstance(value, TrapezoidalNumber):
        return b"T" + _F64.pack(value.a) + _F64.pack(value.b) + _F64.pack(value.c) + _F64.pack(value.d)
    if isinstance(value, DiscreteDistribution):
        parts = [b"D", _U16.pack(len(value.items))]
        for element, degree in sorted(value.items.items(), key=lambda kv: repr(kv[0])):
            if isinstance(element, float):
                parts.append(b"N" + _F64.pack(element))
            else:
                raw = str(element).encode("utf-8")
                parts.append(b"L" + _U16.pack(len(raw)) + raw)
            parts.append(_F64.pack(degree))
        return b"".join(parts)
    raise SerializationError(f"cannot serialize {type(value).__name__}")


def decode_value(data: bytes, offset: int) -> Tuple[Distribution, int]:
    """Parse one tagged distribution at ``offset``; returns ``(value, next offset)``."""
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        (v,) = _F64.unpack_from(data, offset)
        return CrispNumber(v), offset + 8
    if tag == b"L":
        (n,) = _U16.unpack_from(data, offset)
        offset += 2
        return CrispLabel(data[offset:offset + n].decode("utf-8")), offset + n
    if tag == b"T":
        a, b, c, d = struct.unpack_from(">dddd", data, offset)
        return TrapezoidalNumber(a, b, c, d), offset + 32
    if tag == b"D":
        (count,) = _U16.unpack_from(data, offset)
        offset += 2
        items = {}
        for _ in range(count):
            element, offset = decode_value(data, offset)
            (degree,) = _F64.unpack_from(data, offset)
            offset += 8
            if isinstance(element, CrispNumber):
                items[element.value] = degree
            else:
                items[element.value] = degree
        return DiscreteDistribution(items), offset
    raise SerializationError(f"unknown value tag {tag!r} at offset {offset - 1}")


def _unsign_zeros(data: bytearray, offset: int) -> int:
    """Rewrite each ``-0.0`` of the value at ``offset`` as ``0.0``; returns the next offset."""
    tag = data[offset]
    if tag == _L:
        return offset + 3 + _U16.unpack_from(data, offset + 1)[0]
    if tag == _D:
        end = offset + 3
        for _ in range(_U16.unpack_from(data, offset + 1)[0]):
            end = _unsign_zeros(data, end) + 8  # the element, then its degree (> 0)
        return end
    end = offset + (9 if tag == _N else 33)
    for at in range(offset + 1, end, 8):
        if data[at:at + 8] == _NEG_ZERO:
            data[at] = 0
    return end


class TupleSerializer:
    """Encodes/decodes :class:`FuzzyTuple` records for one schema.

    ``fixed_size`` (bytes) pads every record to a constant width, modelling
    the paper's fixed-size tuples; records that don't fit raise
    :class:`SerializationError`.
    """

    def __init__(self, schema: Schema, fixed_size: Optional[int] = None):
        self.schema = schema
        self.fixed_size = fixed_size

    def encode(self, t: FuzzyTuple) -> bytes:
        """Serialize a tuple (degree then values), padding to the fixed size if set."""
        if len(t) != len(self.schema):
            raise SerializationError("tuple arity does not match serializer schema")
        body = _F64.pack(t.degree) + b"".join(encode_value(v) for v in t.values)
        if self.fixed_size is None:
            return body
        if len(body) > self.fixed_size:
            raise SerializationError(
                f"tuple needs {len(body)} bytes but fixed size is {self.fixed_size}"
            )
        return body + b"\x00" * (self.fixed_size - len(body))

    def decode(self, data: bytes) -> FuzzyTuple:
        """Parse one encoded tuple back into a :class:`FuzzyTuple`."""
        (degree,) = _F64.unpack_from(data, 0)
        offset = 8
        values = []
        for _ in range(len(self.schema)):
            value, offset = decode_value(data, offset)
            values.append(value)
        return FuzzyTuple(values, degree)

    def key_at(self, record: bytes, index: int, numeric_only: bool = False) -> Optional[Tuple]:
        """``sort_key`` of column ``index``, read from the record's bytes.

        ``N`` and ``T`` values are skipped and read in place; ``L`` and
        ``D`` values (the appendix's) are decoded, one value at a time —
        or, with ``numeric_only``, give ``None``.
        """
        offset = 8
        for _ in range(index):
            tag = record[offset]
            if tag == _N:
                offset += 9
            elif tag == _T:
                offset += 33
            else:
                offset = decode_value(record, offset)[1]
        tag = record[offset]
        if tag == _N:
            (v,) = _F64.unpack_from(record, offset + 1)
            return v, v
        if tag == _T:
            return _SUPPORT.unpack_from(record, offset + 1)
        return None if numeric_only else decode_value(record, offset)[0].interval()

    def identity(self, record: bytes) -> bytes:
        """A record's value identity: its bytes after the 8-byte degree.

        Equal identities are equal ``value_key()``s: a ``-0.0`` is keyed
        as ``0.0`` (NaN, which no key equals, is matched by its bytes).
        """
        key = record[8:]
        if _NEG_ZERO not in key:
            return key
        data, offset = bytearray(record), 8
        for _ in range(len(self.schema)):
            offset = _unsign_zeros(data, offset)
        return bytes(data[8:])

    def size_of(self, t: FuzzyTuple) -> int:
        """Encoded size in bytes (the fixed size when one is declared)."""
        return len(self.encode(t))
