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
from .mutation import generate_mutants, pool_from_json, pool_to_json
from .profiler import (
    DEFAULT_STEP_LIMIT_FACTOR,
    TAU_MODES,
    ExpensivenessCriterion,
    SuiteEmpty,
    check_profile_reps,
    check_step_limit_factor,
    profile_from_json,
    profile_suite,
    profile_to_json,
    select_candidates,
)
from .project import CONFIG_NAME, ProjectError, load_config, load_project, parse_limit, parse_tau
from .runner import (
    InvalidPool,
    RunConfig,
    ScoreMismatch,
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


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="memomut", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"memomut (memo-db schema {SCHEMA_VERSION})"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def common(p, project=True):
        if project:
            p.add_argument("project", help="project directory or single .mini file")
        p.add_argument("--seed", type=int, default=None, help="seed for the rand builtin")
        p.add_argument(
            "--fake-time",
            action="store_true",
            default=None,
            help="make time_now return a seed-derived monotonic counter",
        )

    def tuning(p):
        p.add_argument(
            "--tau", default=None,
            help="expensiveness threshold: a step count (default 1000steps) or a duration (1ms)",
        )
        p.add_argument("--limit", default=None, help="candidate limit: count or percent, e.g. 20%%")
        p.add_argument("--tau-mode", choices=TAU_MODES, default=None)
        p.add_argument(
            "--time-rand-only",
            action="store_true",
            default=None,
            help="disable the print axiom and global-taint rule",
        )

    p = sub.add_parser("analyze", help="call graph, closure, determinacy, side effects")
    common(p)
    p.add_argument("--time-rand-only", action="store_true", default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("profile", help="run the suite and time every function")
    common(p)
    p.add_argument("--profile-reps", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("mutate", help="generate the mutant pool")
    common(p)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("memoize", help="record and filter memo-tables")
    common(p)
    tuning(p)
    p.add_argument("--profile", required=True, help="profile.json from the profile stage")
    p.add_argument("--step-limit-factor", type=int, default=None)
    p.add_argument("--dump-json", action="store_true", help="also write a JSON mirror of the db")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("run", help="mutation analysis over a mutant pool")
    common(p)
    p.add_argument("--mutants", required=True)
    p.add_argument("--memo", default=None, help="memo database; enables interception")
    p.add_argument(
        "--profile", default=None,
        help="profile.json from the profile stage (default: profile the suite again)",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--all-tests", action="store_true", default=None)
    p.add_argument("--step-limit-factor", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("report", help="compare a base run with a memoized run")
    p.add_argument("base", help="report.json from a memo-off run")
    p.add_argument("memo", help="report.json from a memo-on run")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("pipeline", help="all stages end to end, then the comparison")
    common(p)
    tuning(p)
    p.add_argument("--profile-reps", type=int, default=None)
    p.add_argument("--step-limit-factor", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--all-tests", action="store_true", default=None)
    p.add_argument("--artifact-dir", default=None)
    return parser


# The settings a `memomut.toml` may hold: those some subcommand reads.
_CONFIG_KEYS = frozenset({
    "all_tests", "artifact_dir", "fake_time", "limit", "profile_reps", "seed",
    "step_limit_factor", "tau", "tau_mode", "time_rand_only", "workers",
})

_BOOLS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class Settings:
    """Flag values with config-file fallback and hard defaults."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self._args = args
        self._config = {key.replace("-", "_"): value for key, value in config.items()}
        unknown = sorted(self._config.keys() - _CONFIG_KEYS)
        if unknown:
            raise ProjectError(f"unknown setting in {CONFIG_NAME}: {', '.join(unknown)}")

    def _raw(self, name: str):
        key = name.replace("-", "_")
        assert key in _CONFIG_KEYS, key
        flag = getattr(self._args, key, None)
        return self._config.get(key) if flag is None else flag

    def str_(self, name: str, default: str) -> str:
        raw = self._raw(name)
        return default if raw is None else str(raw)

    def int_(self, name: str, default: int) -> int:
        raw = self._raw(name)
        return default if raw is None else int(raw)

    def bool_(self, name: str, default: bool = False) -> bool:
        raw = self._raw(name)
        if raw is None:
            return default
        if isinstance(raw, bool):
            return raw
        value = _BOOLS.get(raw.lower())
        if value is None:
            raise ValueError(f"bad {name} {raw!r}; expected true/false, yes/no, on/off or 1/0")
        return value

    def criterion(self) -> ExpensivenessCriterion:
        """The criterion's own defaults fill in every setting not given."""
        fields = {}
        if (tau := self._raw("tau")) is not None:
            fields["tau"], fields["tau_unit"] = parse_tau(str(tau))
        if (limit := self._raw("limit")) is not None:
            fields["limit_value"], fields["limit_is_pct"] = parse_limit(str(limit))
        if (tau_mode := self._raw("tau-mode")) is not None:
            fields["tau_mode"] = str(tau_mode)
        return ExpensivenessCriterion(**fields)

    def runtime(self) -> Runtime:
        return Runtime(seed=self.int_("seed", 0), fake_time=self.bool_("fake-time"))

    def step_limit_factor(self) -> int:
        return check_step_limit_factor(self.int_("step-limit-factor", DEFAULT_STEP_LIMIT_FACTOR))

    def profile_reps(self) -> int:
        return check_profile_reps(self.int_("profile-reps", 1))

    def run_config(self, memo: bool) -> RunConfig:
        return RunConfig(
            memo=memo,
            step_limit_factor=self.step_limit_factor(),
            all_tests=self.bool_("all-tests"),
            workers=self.int_("workers", 1),
        )


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
    bundle = analyze_program(program, time_rand_only=st.bool_("time-rand-only"))
    _write_json(bundle_to_json(bundle), args.output)
    return 0


def _cmd_profile(args, st: Settings) -> int:
    runtime, reps = st.runtime(), st.profile_reps()
    program = load_project(args.project)
    profile = profile_suite(program, runtime=runtime, reps=reps)
    _write_json(profile_to_json(profile), args.output)
    return 0


def _cmd_mutate(args, st: Settings) -> int:
    program = load_project(args.project)
    pool = generate_mutants(program)
    _write_json(pool_to_json(pool), args.output)
    return 0


def _build_db(program, profile, bundle, criterion: ExpensivenessCriterion, runtime: Runtime, factor: int):
    candidates = select_candidates(profile, bundle.determinacy, criterion)
    raw = record_tables(
        program, bundle, candidates, profile,
        criterion=criterion, step_limit_factor=factor, runtime=runtime,
    )
    final, _ = provisional_memoization(
        program, raw, profile,
        step_limit_factor=factor, runtime=runtime,
    )
    return final


def _cmd_memoize(args, st: Settings) -> int:
    criterion, runtime, factor = st.criterion(), st.runtime(), st.step_limit_factor()
    program = load_project(args.project)
    profile = profile_from_json(_read_json(args.profile))
    bundle = analyze_program(program, time_rand_only=st.bool_("time-rand-only"))
    final = _build_db(program, profile, bundle, criterion, runtime, factor)
    save_db(final, args.output)
    if args.dump_json:
        _write_json(db_to_json(final), args.output + ".json")
    return 0


def _cmd_run(args, st: Settings) -> int:
    cfg, runtime = st.run_config(memo=args.memo is not None), st.runtime()
    program = load_project(args.project)
    pool = pool_from_json(_read_json(args.mutants))
    if args.profile:
        profile = profile_from_json(_read_json(args.profile))
    else:
        profile = profile_suite(program, runtime=runtime)
    closure = dependency_closure(build_call_graph(program))
    db = load_db(args.memo, program) if args.memo else None
    report = run_mutation_analysis(program, pool, profile, closure, db=db, cfg=cfg, runtime=runtime)
    _write_json(report_to_json(report), args.output)
    return 0


def _cmd_report(args, st: Settings) -> int:
    base = report_from_json(_read_json(args.base))
    memo = report_from_json(_read_json(args.memo))
    block = compare_runs(base, memo)
    print(_comparison_table(block))
    if args.output:
        _write_json(block, args.output)
    return 0


def _cmd_pipeline(args, st: Settings) -> int:
    criterion, runtime, reps = st.criterion(), st.runtime(), st.profile_reps()
    time_rand_only = st.bool_("time-rand-only")
    base_cfg, memo_cfg = st.run_config(memo=False), st.run_config(memo=True)
    program = load_project(args.project)
    art = Path(st.str_("artifact-dir", str(Path(args.project) / ".memomut")))
    art.mkdir(parents=True, exist_ok=True)

    bundle = analyze_program(program, time_rand_only=time_rand_only)
    _write_json(bundle_to_json(bundle), str(art / "analysis.json"))

    profile = profile_suite(program, runtime=runtime, reps=reps)
    _write_json(profile_to_json(profile), str(art / "profile.json"))

    pool = generate_mutants(program)
    _write_json(pool_to_json(pool), str(art / "mutants.json"))

    db = _build_db(program, profile, bundle, criterion, runtime, base_cfg.step_limit_factor)
    save_db(db, art / "memo.db")

    base = run_mutation_analysis(program, pool, profile, bundle.closure, db=None, cfg=base_cfg, runtime=runtime)
    _write_json(report_to_json(base), str(art / "base.json"))
    memo = run_mutation_analysis(program, pool, profile, bundle.closure, db=db, cfg=memo_cfg, runtime=runtime)
    _write_json(report_to_json(memo), str(art / "memo.json"))

    block = compare_runs(base, memo)
    _write_json(block, str(art / "comparison.json"))
    print(_comparison_table(block))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "mutate": _cmd_mutate,
    "memoize": _cmd_memoize,
    "run": _cmd_run,
    "report": _cmd_report,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        config = load_config(args.project) if hasattr(args, "project") else {}
        return _COMMANDS[args.command](args, Settings(args, config))
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
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"memomut: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
