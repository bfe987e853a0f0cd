"""Command-line entry point wiring the pipeline stages together.

Subcommands: analyze | profile | mutate | memoize | run | report |
pipeline.  Each is a pure function of its on-disk inputs, flags, and
seed; outputs are key-sorted JSON (or the binary memo database), so
re-invocation is reproducible except for wall-time fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import analyze_program, build_call_graph, bundle_to_json, dependency_closure
from .lang.interp import Runtime
from .lang.parser import MiniSyntaxError, ResolutionError
from .memo.builder import provisional_memoization, record_tables
from .memo.db import (
    CorruptDB,
    FingerprintMismatch,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    db_to_json,
    load_db,
    save_db,
)
from .mutation import StaleMutant, generate_mutants, pool_from_json, pool_to_json
from .profiler import (
    ExpensivenessCriterion,
    SuiteEmpty,
    profile_from_json,
    profile_suite,
    profile_to_json,
    select_candidates,
)
from .project import CONFIG_NAME, ProjectError, load_config, load_project, parse_limit, parse_tau, project_dir
from .runner import (
    InvalidPool,
    RunConfig,
    ScoreMismatch,
    check_workers,
    compare_runs,
    report_from_json,
    report_to_json,
    run_mutation_analysis,
)

EX_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2
    for fingerprint failures and use the sysexits convention instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _write_json(doc: dict, out: str | None) -> None:
    """Writes `doc` as one line of key-sorted JSON: without an indent,
    `json` encodes it in C."""
    text = json.dumps(doc, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_json(path: str, from_json: Callable, *args):
    """`from_json(doc, *args)` of the JSON file at `path`; a missing key or
    a value of the wrong type is a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return from_json(doc, *args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed artifact: {type(exc).__name__}: {exc}") from None


class _Setting(NamedTuple):
    kind: type  # int, str, or bool for a yes/no switch
    default: object  # None: the library's default, or one the command works out
    check: Callable | None  # checks a given value and returns what is used
    commands: str  # the subcommands that read it
    help: str


# Every setting: its --flag on each subcommand that reads it, and its
# `memomut.toml` key, spelled with '_' or '-'.
_SETTINGS = {
    "seed": _Setting(int, 0, None, "profile memoize run pipeline", "seed for the rand builtin"),
    "fake_time": _Setting(bool, False, None, "profile memoize run pipeline",
                          "make time_now return a seed-derived monotonic counter"),
    "tau": _Setting(str, None, parse_tau, "memoize pipeline",
                    "expensiveness threshold: a step count (default 1000steps) or a duration (1ms)"),
    "limit": _Setting(str, None, parse_limit, "memoize pipeline", "candidates: a count or a percent (default 20%%)"),
    "time_rand_only": _Setting(bool, False, None, "analyze memoize pipeline",
                               "disable the print axiom and global-taint rule"),
    "workers": _Setting(int, 1, check_workers, "run pipeline", "processes that run mutants"),
    "artifact_dir": _Setting(str, None, None, "pipeline",
                             "output directory (default .memomut in the project directory or a file's parent)"),
}

_BOOLS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _from_config(name: str, kind: type, text: str):
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        expected = "true/false, yes/no, on/off or 1/0" if kind is bool else "an integer"
        raise ValueError(f"bad {name.replace('_', '-')} {text!r}; expected {expected}") from None


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="memomut", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"memomut (memo-db schema {SCHEMA_VERSION})"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    commands = {}
    for name, command, text in (
        ("analyze", _cmd_analyze, "call graph, closure, determinacy, side effects"),
        ("profile", _cmd_profile, "run the suite and time every function"),
        ("mutate", _cmd_mutate, "generate the mutant pool"),
        ("memoize", _cmd_memoize, "record and filter memo-tables"),
        ("run", _cmd_run, "mutation analysis over a mutant pool"),
        ("pipeline", _cmd_pipeline, "all stages end to end, then the comparison"),
    ):
        commands[name] = p = sub.add_parser(name, help=text)
        p.set_defaults(run=command)
        p.add_argument("project", help="project directory or single .mini file")

    p = commands["memoize"]
    p.add_argument("--profile", required=True, help="profile.json from the profile stage")
    p.add_argument("--dump-json", action="store_true", help="also write a JSON mirror of the db")
    p.add_argument("-o", "--output", required=True)

    p = commands["run"]
    p.add_argument("--mutants", required=True)
    p.add_argument("--memo", default=None, help="memo database; enables interception")
    p.add_argument("--profile", default=None, help="profile.json to use (default: profile the suite again)")

    p = sub.add_parser("report", help="compare a base run with a memoized run")
    p.set_defaults(run=_cmd_report)
    p.add_argument("base", help="report.json from a memo-off run")
    p.add_argument("memo", help="report.json from a memo-on run")
    for p in (commands["analyze"], commands["profile"], commands["mutate"], commands["run"], p):
        p.add_argument("-o", "--output", default=None)

    for name, row in _SETTINGS.items():
        kind = {"action": "store_true"} if row.kind is bool else {"type": row.kind}
        for command in row.commands.split():
            commands[command].add_argument("--" + name.replace("_", "-"), default=None, help=row.help, **kind)
    return parser


class Settings(dict):
    """Every setting the subcommand reads, checked: its flag, else its
    `memomut.toml` value, else its default."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        super().__init__()
        unknown = sorted(key for key in config if key.replace("-", "_") not in _SETTINGS)
        if unknown:
            raise ProjectError(f"unknown setting in {CONFIG_NAME}: {', '.join(unknown)}")
        config = {key.replace("-", "_"): value for key, value in config.items()}
        for name, row in _SETTINGS.items():
            if args.command not in row.commands.split():
                continue
            value = getattr(args, name)
            if value is None and name in config:
                value = _from_config(name, row.kind, config[name])
            if value is None:
                value = row.default
            elif row.check is not None:
                value = row.check(value)
            self[name] = value

    def criterion(self) -> ExpensivenessCriterion:
        """The criterion's own defaults fill in every setting not given."""
        fields = {}
        if self["tau"] is not None:
            fields["tau"], fields["tau_unit"] = self["tau"]
        if self["limit"] is not None:
            fields["limit_value"], fields["limit_is_pct"] = self["limit"]
        return ExpensivenessCriterion(**fields)

    def runtime(self) -> Runtime:
        return Runtime(seed=self["seed"], fake_time=self["fake_time"])

    def run_config(self, memo: bool) -> RunConfig:
        return RunConfig(memo=memo, workers=self["workers"])


def _comparison_table(block: dict) -> str:
    rows = [
        ("mutation score", f"{block['score']:.6f}"),
        ("base wall time", f"{block['base_wall_ns'] / 1e6:.1f} ms"),
        ("memo wall time", f"{block['memo_wall_ns'] / 1e6:.1f} ms"),
        ("speed-up", f"{block['speedup_pct']:.2f}%"),
        ("base steps", str(block["base_steps"])),
        ("memo steps", str(block["memo_steps"])),
        ("step saving", f"{block['step_saving_pct']:.2f}%"),
        ("cache hits", str(block["hits"])),
        ("cache misses", str(block["misses"])),
        ("gated executions", str(block["gated"])),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _cmd_analyze(args, st: Settings) -> int:
    program = load_project(args.project)
    bundle = analyze_program(program, time_rand_only=st["time_rand_only"])
    _write_json(bundle_to_json(bundle), args.output)
    return 0


def _cmd_profile(args, st: Settings) -> int:
    program = load_project(args.project)
    profile = profile_suite(program, runtime=st.runtime())
    _write_json(profile_to_json(profile), args.output)
    return 0


def _cmd_mutate(args, st: Settings) -> int:
    program = load_project(args.project)
    pool = generate_mutants(program)
    _write_json(pool_to_json(pool), args.output)
    return 0


def _build_db(program, profile, bundle, st: Settings):
    criterion, runtime = st.criterion(), st.runtime()
    candidates = select_candidates(profile, bundle.determinacy, criterion)
    raw = record_tables(program, bundle, candidates, profile, criterion=criterion, runtime=runtime)
    final, _ = provisional_memoization(program, raw, profile, bundle.closure, runtime=runtime)
    return final


def _cmd_memoize(args, st: Settings) -> int:
    program = load_project(args.project)
    profile = _read_json(args.profile, profile_from_json, program)
    bundle = analyze_program(program, time_rand_only=st["time_rand_only"])
    final = _build_db(program, profile, bundle, st)
    save_db(final, args.output)
    if args.dump_json:
        _write_json(db_to_json(final), args.output + ".json")
    return 0


def _cmd_run(args, st: Settings) -> int:
    runtime = st.runtime()
    program = load_project(args.project)
    pool = _read_json(args.mutants, pool_from_json)
    if args.profile:
        profile = _read_json(args.profile, profile_from_json, program)
    else:
        profile = profile_suite(program, runtime=runtime)
    closure = dependency_closure(build_call_graph(program))
    db = load_db(args.memo, program) if args.memo else None
    cfg = st.run_config(memo=args.memo is not None)
    report = run_mutation_analysis(program, pool, profile, closure, db=db, cfg=cfg, runtime=runtime)
    _write_json(report_to_json(report), args.output)
    return 0


def _cmd_report(args, st: Settings) -> int:
    base = _read_json(args.base, report_from_json)
    memo = _read_json(args.memo, report_from_json)
    block = compare_runs(base, memo)
    print(_comparison_table(block))
    if args.output:
        _write_json(block, args.output)
    return 0


def _cmd_pipeline(args, st: Settings) -> int:
    runtime = st.runtime()
    program = load_project(args.project)
    art = project_dir(args.project) / ".memomut" if st["artifact_dir"] is None else Path(st["artifact_dir"])
    art.mkdir(parents=True, exist_ok=True)

    bundle = analyze_program(program, time_rand_only=st["time_rand_only"])
    _write_json(bundle_to_json(bundle), str(art / "analysis.json"))

    profile = profile_suite(program, runtime=runtime)
    _write_json(profile_to_json(profile), str(art / "profile.json"))

    pool = generate_mutants(program)
    _write_json(pool_to_json(pool), str(art / "mutants.json"))

    db = _build_db(program, profile, bundle, st)
    save_db(db, art / "memo.db")

    base_cfg, memo_cfg = st.run_config(memo=False), st.run_config(memo=True)
    base = run_mutation_analysis(program, pool, profile, bundle.closure, db=None, cfg=base_cfg, runtime=runtime)
    _write_json(report_to_json(base), str(art / "base.json"))
    memo = run_mutation_analysis(program, pool, profile, bundle.closure, db=db, cfg=memo_cfg, runtime=runtime)
    _write_json(report_to_json(memo), str(art / "memo.json"))

    block = compare_runs(base, memo)
    _write_json(block, str(art / "comparison.json"))
    print(_comparison_table(block))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        config = load_config(args.project) if hasattr(args, "project") else {}
        return args.run(args, Settings(args, config))
    except (FingerprintMismatch, InvalidPool) as exc:
        print(f"memomut: {exc}", file=sys.stderr)
        return 2
    except ScoreMismatch as exc:
        print(f"memomut: {exc}", file=sys.stderr)
        return 3
    except (
        ProjectError,
        MiniSyntaxError,
        ResolutionError,
        SuiteEmpty,
        CorruptDB,
        SchemaVersionMismatch,
        StaleMutant,
        ValueError,
        OSError,
    ) as exc:
        print(f"memomut: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
