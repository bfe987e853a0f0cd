"""Canonical binary encoding of Mini values and 64-bit checksums.

The encoding is type-tagged and length-prefixed, injective up to deep
structural equality, and is the basis for memo-table keys, record
payloads, and program fingerprints.
"""

from __future__ import annotations

import struct
import zlib

from ..lang.ast import Program, per_node, print_program
from ..lang.values import UNIT, FnRef, Value

TAG_INT = 0x01
TAG_BOOL = 0x02
TAG_STR = 0x03
TAG_ARR = 0x04
TAG_FNREF = 0x05
TAG_UNIT = 0x06


class DecodeError(ValueError):
    """Bytes that do not decode, reported at their offset in the whole buffer."""

    def __init__(self, offset: int, message: str = "corrupt data"):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class Reader:
    """Reads `data` from `offset` up to `end`; every error names its offset
    in the whole of `data`, also from a sub-reader over one body."""

    def __init__(self, data: bytes, offset: int = 0, end: int | None = None):
        self.data = data
        self.offset = offset
        self.end = len(data) if end is None else end

    def skip(self, n: int) -> int:
        """Step over `n` bytes; returns where they start."""
        start = self.offset
        if n > self.end - start:
            raise DecodeError(start, "truncated")
        self.offset = start + n
        return start

    def take(self, n: int) -> bytes:
        return self.data[self.skip(n) : self.offset]

    def sub(self, n: int) -> Reader:
        """A reader over the next `n` bytes, which this one steps over."""
        return Reader(self.data, self.skip(n), self.offset)

    def done(self, what: str) -> None:
        if self.offset != self.end:
            raise DecodeError(self.offset, f"trailing bytes in {what}")

    def u8(self) -> int:
        return self.data[self.skip(1)]

    def u16(self) -> int:
        return struct.unpack_from(">H", self.data, self.skip(2))[0]

    def u32(self) -> int:
        return struct.unpack_from(">I", self.data, self.skip(4))[0]

    def u64(self) -> int:
        return struct.unpack_from(">Q", self.data, self.skip(8))[0]

    def f64(self) -> float:
        return struct.unpack_from(">d", self.data, self.skip(8))[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(self.offset - len(raw), "bad utf-8") from exc

    def value(self) -> Value:
        tag = self.u8()
        if tag == TAG_INT:
            return struct.unpack_from(">q", self.data, self.skip(8))[0]
        if tag == TAG_BOOL:
            b = self.u8()
            if b > 1:
                raise DecodeError(self.offset - 1, "bad bool")
            return b == 1
        if tag == TAG_STR:
            return self.string()
        if tag == TAG_ARR:
            return [self.value() for _ in range(self.u32())]
        if tag == TAG_FNREF:
            return FnRef(self.string())
        if tag == TAG_UNIT:
            return UNIT
        raise DecodeError(self.offset - 1, f"unknown tag {tag:#x}")


def checksum64(data: bytes) -> int:
    """CRC-32 of `data` in the high 32 bits, Adler-32 in the low 32.

    Both run in C, and CRC-32 alone detects every single-byte change.
    `zlib` is already imported through `shutil`; `hashlib` would load
    OpenSSL into every process.
    """
    return zlib.crc32(data) << 32 | zlib.adler32(data)


def encode_value(v: Value) -> bytes:
    out = bytearray()
    _encode_into(v, out)
    return bytes(out)


def _encode_into(v: Value, out: bytearray) -> None:
    if v is UNIT:
        out.append(TAG_UNIT)
    elif type(v) is bool:
        out.append(TAG_BOOL)
        out.append(1 if v else 0)
    elif type(v) is int:
        out.append(TAG_INT)
        out += struct.pack(">q", v)
    elif type(v) is str:
        raw = v.encode("utf-8")
        out.append(TAG_STR)
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(v, list):
        out.append(TAG_ARR)
        out += struct.pack(">I", len(v))
        for x in v:
            _encode_into(x, out)
    elif isinstance(v, FnRef):
        raw = v.name.encode("utf-8")
        out.append(TAG_FNREF)
        out += struct.pack(">I", len(raw))
        out += raw
    else:
        raise TypeError(f"not a Mini value: {v!r}")


def decode_value(buf: bytes, offset: int = 0) -> tuple[Value, int]:
    """Decode one value; returns (value, next offset)."""
    r = Reader(buf, offset)
    return r.value(), r.offset


def encode_key(args: list, global_items: list[tuple[str, Value]]) -> bytes:
    """Canonical memo-key bytes for (arguments, may-read global values).

    Globals must be supplied pre-sorted by name; both sections are
    count-prefixed so the concatenation stays injective.
    """
    out = bytearray()
    out += struct.pack(">I", len(args))
    for a in args:
        _encode_into(a, out)
    out += struct.pack(">I", len(global_items))
    for name, value in global_items:
        raw = name.encode("utf-8")
        out += struct.pack(">I", len(raw))
        out += raw
        _encode_into(value, out)
    return bytes(out)


@per_node
def program_fingerprint(program: Program) -> int:
    """`checksum64` of the canonical pretty-printed source."""
    return checksum64(print_program(program).encode("utf-8"))
