"""Project loading and configuration parsing.

A project is a directory of `.mini` source files; they are concatenated
in lexicographic filename order and parsed as one program.  An optional
`memomut.toml` in the project directory supplies defaults as plain
`key = value` lines; command-line flags override it.
"""

from __future__ import annotations

import re
from pathlib import Path

from .lang.ast import Program
from .lang.parser import parse

CONFIG_NAME = "memomut.toml"


class ProjectError(Exception):
    pass


def project_sources(path: str | Path) -> list[Path]:
    p = Path(path)
    if p.is_file():
        if p.suffix != ".mini":
            raise ProjectError(f"not a .mini file: {p}")
        return [p]
    if not p.is_dir():
        raise ProjectError(f"no such project: {p}")
    files = sorted(p.glob("*.mini"), key=lambda f: f.name)
    if not files:
        raise ProjectError(f"no .mini files in {p}")
    return files


def load_project(path: str | Path) -> Program:
    files = project_sources(path)
    chunks = [f.read_text(encoding="utf-8") for f in files]
    return parse("\n".join(chunks))


def load_config(path: str | Path) -> dict[str, str]:
    """Read `memomut.toml` next to the sources; missing file means empty config."""
    p = Path(path)
    cfg_path = (p if p.is_dir() else p.parent) / CONFIG_NAME
    if not cfg_path.is_file():
        return {}
    out: dict[str, str] = {}
    for lineno, line in enumerate(cfg_path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ProjectError(f"{cfg_path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip().strip('"')
    return out


_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ns|us|ms|s)\s*$")
_DURATION_SCALE = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}


def parse_duration(text: str) -> int:
    """Duration with unit suffix ("1ms", "250us", "0.5s") to nanoseconds."""
    m = _DURATION_RE.match(text)
    if not m:
        raise ValueError(f"bad duration {text!r}; expected e.g. 1ms, 250us, 2s")
    return int(float(m.group(1)) * _DURATION_SCALE[m.group(2)])


_STEPS_RE = re.compile(r"^\s*(\d+)\s*steps\s*$")


def parse_tau(text: str) -> tuple[int, str]:
    """Expensiveness threshold as (value, unit): a duration ("1ms") in
    nanoseconds, or a step count ("1000steps")."""
    m = _STEPS_RE.match(text)
    if m:
        return int(m.group(1)), "steps"
    try:
        return parse_duration(text), "ns"
    except ValueError:
        raise ValueError(
            f"bad tau {text!r}; expected a duration (1ms, 250us) or a step count (1000steps)"
        ) from None


def parse_limit(text: str) -> tuple[float, bool]:
    """Candidate limit: "20%" means a share, a bare integer a fixed count."""
    stripped = text.strip()
    if stripped.endswith("%"):
        value = float(stripped[:-1])
        if not 0 < value <= 100:  # false for NaN too
            raise ValueError(f"percent limit out of range: {text!r}")
        return value, True
    value = int(stripped)
    if value < 1:
        raise ValueError(f"count limit must be positive: {text!r}")
    return float(value), False
