"""The memo-tables database: in-memory form and binary persistence.

File layout (all integers big-endian):

    magic "MEMU"
    u16  schema version
    u64  program fingerprint
    u64  tau
    u8   tau unit (0 = nanoseconds, 1 = steps)
    u8   limit mode (1 = percent, 0 = absolute count)
    f64  limit value
    u32  table count
    u64  checksum of everything above
    per table:  u32 body length, body, u64 checksum of body
    exclusions: u32 body length, body, u64 checksum of body

Each table body ends with its entries, each a u32 key length, the key,
the key's u64 checksum, a u32 record length and the record.  Every
checksum is `checksum64`: CRC-32 in the high 32 bits, Adler-32 in the
low 32.  Checksums make single-byte corruption detectable anywhere in
the file, and one bounded reader, with a sub-reader per body, reports each error at
its offset in the file.
The version is checked right after the magic, because other schema
versions lay out the header differently; the fingerprint is checked only
once the header checksum holds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..lang.ast import Program
from ..lang.values import Value
from .encoding import DecodeError, Reader, checksum64, encode_value, program_fingerprint

MAGIC = b"MEMU"
SCHEMA_VERSION = 3


class FingerprintMismatch(Exception):
    pass


class SchemaVersionMismatch(Exception):
    pass


# A corrupt byte anywhere in the file is a decode error at its file offset.
CorruptDB = DecodeError


@dataclass
class OutputRecord:
    ret: Value
    written_globals: dict[str, Value]
    post_args: dict[int, Value]
    output_steps: int


@dataclass
class MemoTable:
    fn: str
    may_read: list[str]  # global names, sorted; the key's global section
    may_write: list[str]
    mut_args: list[int]
    entries: dict[bytes, OutputRecord] = field(default_factory=dict)
    recorded_from: set[str] = field(default_factory=set)


@dataclass
class Exclusion:
    reason: str  # new_test_failure | cache_miss_on_covering_test | conflicted
    detail: Optional[str] = None


@dataclass
class MemoDB:
    fingerprint: int
    tau: int
    limit_value: float
    limit_is_pct: bool
    tau_unit: str = "ns"  # or "steps"
    tables: dict[str, MemoTable] = field(default_factory=dict)
    exclusions: dict[str, Exclusion] = field(default_factory=dict)


_REASON_TAGS = {
    "new_test_failure": 1,
    "cache_miss_on_covering_test": 2,
    "conflicted": 3,
}
_TAG_REASONS = {v: k for k, v in _REASON_TAGS.items()}
_TAU_UNIT_TAGS = {"ns": 0, "steps": 1}
_TAG_TAU_UNITS = {v: k for k, v in _TAU_UNIT_TAGS.items()}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def encode_record(rec: OutputRecord) -> bytes:
    out = bytearray()
    out += encode_value(rec.ret)
    out += struct.pack(">I", len(rec.written_globals))
    for name in sorted(rec.written_globals):
        out += _pack_str(name)
        out += encode_value(rec.written_globals[name])
    out += struct.pack(">I", len(rec.post_args))
    for pos in sorted(rec.post_args):
        out += struct.pack(">I", pos)
        out += encode_value(rec.post_args[pos])
    out += struct.pack(">Q", rec.output_steps)
    return bytes(out)


def _read_record(r: Reader) -> OutputRecord:
    ret = r.value()
    written = {}
    for _ in range(r.u32()):
        name = r.string()
        written[name] = r.value()
    post_args = {}
    for _ in range(r.u32()):
        pos = r.u32()
        post_args[pos] = r.value()
    steps = r.u64()
    r.done("record")
    return OutputRecord(ret=ret, written_globals=written, post_args=post_args, output_steps=steps)


def _table_body(table: MemoTable) -> bytes:
    out = bytearray()
    out += _pack_str(table.fn)
    for names in (table.may_read, table.may_write):
        out += struct.pack(">I", len(names))
        for n in names:
            out += _pack_str(n)
    out += struct.pack(">I", len(table.mut_args))
    for pos in table.mut_args:
        out += struct.pack(">I", pos)
    recorded = sorted(table.recorded_from)
    out += struct.pack(">I", len(recorded))
    for t in recorded:
        out += _pack_str(t)
    out += struct.pack(">I", len(table.entries))
    for key in sorted(table.entries):
        rec = encode_record(table.entries[key])
        out += struct.pack(">I", len(key))
        out += key
        out += struct.pack(">Q", checksum64(key))
        out += struct.pack(">I", len(rec))
        out += rec
    return bytes(out)


def _read_table(r: Reader) -> MemoTable:
    fn = r.string()
    may_read = [r.string() for _ in range(r.u32())]
    may_write = [r.string() for _ in range(r.u32())]
    mut_args = [r.u32() for _ in range(r.u32())]
    recorded = {r.string() for _ in range(r.u32())}
    entries: dict[bytes, OutputRecord] = {}
    for _ in range(r.u32()):
        key = r.take(r.u32())
        if r.u64() != checksum64(key):
            raise CorruptDB(r.offset - 8, "key hash mismatch")
        entries[key] = _read_record(r.sub(r.u32()))
    r.done("table")
    return MemoTable(
        fn=fn,
        may_read=may_read,
        may_write=may_write,
        mut_args=mut_args,
        entries=entries,
        recorded_from=recorded,
    )


def _sealed(r: Reader, what: str) -> Reader:
    """A reader over the next length-prefixed body, once its checksum holds."""
    body = r.sub(r.u32())
    if r.u64() != checksum64(r.data[body.offset : body.end]):
        raise CorruptDB(body.offset, f"{what} checksum mismatch")
    return body


def db_to_bytes(db: MemoDB) -> bytes:
    header = bytearray()
    header += MAGIC
    header += struct.pack(">H", SCHEMA_VERSION)
    header += struct.pack(">Q", db.fingerprint)
    header += struct.pack(">Q", db.tau)
    header += struct.pack(">B", _TAU_UNIT_TAGS[db.tau_unit])
    header += struct.pack(">B", 1 if db.limit_is_pct else 0)
    header += struct.pack(">d", db.limit_value)
    header += struct.pack(">I", len(db.tables))
    header += struct.pack(">Q", checksum64(header))

    out = bytearray(header)
    for fn in sorted(db.tables):
        body = _table_body(db.tables[fn])
        out += struct.pack(">I", len(body))
        out += body
        out += struct.pack(">Q", checksum64(body))

    excl = bytearray()
    excl += struct.pack(">I", len(db.exclusions))
    for fn in sorted(db.exclusions):
        e = db.exclusions[fn]
        excl += _pack_str(fn)
        excl += struct.pack(">B", _REASON_TAGS[e.reason])
        excl += _pack_str(e.detail or "")
    out += struct.pack(">I", len(excl))
    out += excl
    out += struct.pack(">Q", checksum64(excl))
    return bytes(out)


def db_from_bytes(data: bytes, expected_fingerprint: Optional[int] = None) -> MemoDB:
    r = Reader(data)
    if r.take(4) != MAGIC:
        raise CorruptDB(0, "bad magic")
    version = r.u16()
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"schema version {version}, expected {SCHEMA_VERSION}")
    fingerprint = r.u64()
    tau = r.u64()
    unit_offset = r.offset
    tau_unit_tag = r.u8()
    limit_tag = r.u8()
    limit_value = r.f64()
    table_count = r.u32()
    header_end = r.offset
    if r.u64() != checksum64(data[:header_end]):
        raise CorruptDB(header_end, "header checksum mismatch")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise FingerprintMismatch(
            f"db fingerprint {fingerprint:#x} does not match program {expected_fingerprint:#x}"
        )
    if tau_unit_tag not in _TAG_TAU_UNITS:
        raise CorruptDB(unit_offset, "bad tau unit")
    if limit_tag > 1:
        raise CorruptDB(unit_offset + 1, "bad limit mode")
    db = MemoDB(
        fingerprint=fingerprint,
        tau=tau,
        tau_unit=_TAG_TAU_UNITS[tau_unit_tag],
        limit_value=limit_value,
        limit_is_pct=limit_tag == 1,
    )
    for _ in range(table_count):
        table = _read_table(_sealed(r, "table"))
        db.tables[table.fn] = table
    er = _sealed(r, "exclusions")
    for _ in range(er.u32()):
        fn = er.string()
        tag = er.u8()
        if tag not in _TAG_REASONS:
            raise CorruptDB(er.offset - 1, "bad exclusion reason")
        detail = er.string()
        db.exclusions[fn] = Exclusion(reason=_TAG_REASONS[tag], detail=detail or None)
    er.done("exclusions")
    r.done("file")
    return db


def save_db(db: MemoDB, path) -> None:
    with open(path, "wb") as fh:
        fh.write(db_to_bytes(db))


def load_db(path, program: Optional[Program] = None) -> MemoDB:
    """Load and verify a database, checking the fingerprint when a program is given."""
    with open(path, "rb") as fh:
        data = fh.read()
    expected = program_fingerprint(program) if program is not None else None
    return db_from_bytes(data, expected)


def db_to_json(db: MemoDB) -> dict:
    """Human-readable mirror for diagnostics; the binary file is authoritative."""
    from ..lang.values import format_value

    return {
        "fingerprint": db.fingerprint,
        "schema_version": SCHEMA_VERSION,
        "tau": {"value": db.tau, "unit": db.tau_unit},
        "limit": {"value": db.limit_value, "is_pct": db.limit_is_pct},
        "tables": {
            fn: {
                "may_read": t.may_read,
                "may_write": t.may_write,
                "mut_args": t.mut_args,
                "recorded_from": sorted(t.recorded_from),
                "entries": [
                    {
                        "key_hash": f"{checksum64(key):016x}",
                        "return": format_value(t.entries[key].ret),
                        "written_globals": {
                            g: format_value(v) for g, v in sorted(t.entries[key].written_globals.items())
                        },
                        "post_args": {
                            str(p): format_value(v) for p, v in sorted(t.entries[key].post_args.items())
                        },
                        "output_steps": t.entries[key].output_steps,
                    }
                    for key in sorted(t.entries)
                ],
            }
            for fn, t in sorted(db.tables.items())
        },
        "exclusions": {
            fn: {"reason": e.reason, "detail": e.detail} for fn, e in sorted(db.exclusions.items())
        },
    }
