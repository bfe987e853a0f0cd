"""Runtime values for Mini.

Ints are Python ints kept within signed 64-bit range (arithmetic wraps),
bools and strings map to their Python counterparts, and arrays are plain
Python lists so aliasing works the way the language requires.  Function
references and the unit value get small wrapper types so the tags stay
distinguishable from ordinary data.
"""

from __future__ import annotations

from dataclasses import dataclass

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1
_U64 = 1 << 64


class Unit:
    """The single value of statements and value-less returns."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unit"


UNIT = Unit()


@dataclass(frozen=True)
class FnRef:
    """First-class reference to a declared function or builtin."""

    name: str


# A Mini value is one of: int, bool, str, list, FnRef, Unit.
Value = object


def wrap64(n: int) -> int:
    """Wrap an arbitrary int into signed 64-bit two's complement."""
    return ((n - INT_MIN) % _U64) + INT_MIN


def deep_copy(v: Value) -> Value:
    """Structural copy sharing no list references with the input."""
    if isinstance(v, list):
        return [deep_copy(x) for x in v]
    return v


def copy_shared(v: Value, memo: dict[int, list]) -> Value:
    """Structural copy that keeps sharing: a list reached again, here or
    in an earlier copy with the same `memo` (id -> copy), gets the same copy."""
    if not isinstance(v, list):
        return v
    c = memo.get(id(v))
    if c is None:
        c = memo[id(v)] = v[:]
        for i, x in enumerate(c):
            if isinstance(x, list):
                c[i] = copy_shared(x, memo)
    return c


def deep_equal(a: Value, b: Value) -> bool:
    """Structural equality; bool and int are distinct types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(deep_equal(x, y) for x, y in zip(a, b))
    return a == b


def contains_array(v: Value, target: list) -> bool:
    """True when `target` is reachable (by identity) from `v`."""
    if isinstance(v, list):
        if v is target:
            return True
        return any(contains_array(x, target) for x in v)
    return False


def format_value(v: Value) -> str:
    """Human-readable rendering used by the `print` builtin."""
    return _fmt(v, quote=False)


def literal_str(v: Value) -> str:
    """Source-literal rendering (strings quoted), used by the printer."""
    return _fmt(v, quote=True)


def _fmt(v: Value, quote: bool) -> str:
    if v is UNIT:
        return "unit"
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is int:
        return str(v)
    if type(v) is str:
        if quote:
            esc = v.replace("\\", "\\\\").replace('"', '\\"')
            esc = esc.replace("\n", "\\n").replace("\t", "\\t")
            return '"' + esc + '"'
        return v
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x, quote=True) for x in v) + "]"
    if isinstance(v, FnRef):
        return "&" + v.name
    raise TypeError(f"not a Mini value: {v!r}")
