"""Baseline suite profiling and expensive-function candidate selection.

A profiling run executes every test once with entry/exit timing hooks.
Per-function cost is inclusive: each dynamic entry contributes its own
entry-to-exit interval, so nested and recursive invocations overlap
their parents (nested expensive functions are double-counted).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .analysis import DeterminacyReport
from .lang.ast import Program
from .lang.interp import Hooks, Runtime, Verdict, run_test
from .memo.db import FingerprintMismatch
from .memo.encoding import program_fingerprint
from .project import typed

# A test's step budget is this many times its profiled steps, plus 1000.
STEP_LIMIT_FACTOR = 10


class SuiteEmpty(Exception):
    pass


@dataclass
class FunctionStats:
    invocations: int = 0
    inclusive_ns: int = 0
    inclusive_steps: int = 0

    @property
    def mean_ns(self) -> float:
        return self.inclusive_ns / self.invocations if self.invocations else 0.0


@dataclass
class TestRecord:
    covered: set[str]
    verdict: Verdict
    duration_ns: int
    steps: int
    output: list[str]


@dataclass
class Profile:
    functions: dict[str, FunctionStats]
    tests: dict[str, TestRecord]
    fingerprint: int  # of the profiled program

    def covering_passing_tests(self, fn: str) -> list[str]:
        return sorted(
            t for t, rec in self.tests.items() if rec.verdict.passed and fn in rec.covered
        )

    def step_budget(self, test: str) -> int:
        return self.tests[test].steps * STEP_LIMIT_FACTOR + 1000


class ProfileHooks(Hooks):
    """Times every user-function call and records per-test coverage.
    `stats` has a row for every function of the program."""

    def __init__(self, stats: dict[str, FunctionStats]):
        self.stats = stats
        self.covered: set[str] = set()
        self._open: list[tuple[str, int, int]] = []

    def on_call_enter(self, fn, args, state):
        st = self.stats[fn]
        st.invocations += 1
        self.covered.add(fn)
        self._open.append((fn, time.perf_counter_ns(), state.steps))
        return None

    def on_call_exit(self, fn, ret, state):
        name, t0, s0 = self._open.pop()
        st = self.stats[name]
        st.inclusive_ns += time.perf_counter_ns() - t0
        st.inclusive_steps += state.steps - s0


def profile_suite(program: Program, runtime: Runtime | None = None) -> Profile:
    """Profile the whole suite, running each test once."""
    if not program.tests:
        raise SuiteEmpty("program declares no tests")
    runtime = runtime or Runtime()
    functions = {f: FunctionStats() for f in program.functions}
    tests: dict[str, TestRecord] = {}
    for test in program.tests:
        hooks = ProfileHooks(functions)
        outcome, state = run_test(
            program, test, hooks, rng=runtime.rng_for(test), clock=runtime.clock_for(test)
        )
        tests[test] = TestRecord(
            covered=hooks.covered,
            verdict=outcome.verdict,
            duration_ns=outcome.wall_ns,
            steps=outcome.steps,
            output=list(state.output),
        )
    return Profile(functions=functions, tests=tests, fingerprint=program_fingerprint(program))


TAU_UNITS = ("ns", "steps")


@dataclass
class ExpensivenessCriterion:
    """Which functions are expensive enough to memoize.

    A function is expensive when its mean inclusive cost per call is
    above tau, a profiled cost in `tau_unit`: wall time ("ns") or
    executed steps ("steps").  A step threshold picks the same functions
    on every machine and at every interpreter speed.
    """

    tau: int = 1000
    tau_unit: str = "steps"
    limit_value: float = 20.0
    limit_is_pct: bool = True

    def __post_init__(self):
        if self.tau_unit not in TAU_UNITS:
            raise ValueError(f"unknown tau unit {self.tau_unit!r}")

    def inclusive(self, st: FunctionStats) -> int:
        """A function's profiled inclusive cost, summed over its calls, in tau's unit."""
        return st.inclusive_steps if self.tau_unit == "steps" else st.inclusive_ns

    def resolve_limit(self, n_functions: int) -> int:
        if self.limit_is_pct:
            return math.ceil(self.limit_value / 100.0 * n_functions)
        return int(self.limit_value)


@dataclass
class Candidate:
    fn: str
    inclusive: int  # in the criterion's tau unit
    covering_tests: list[str] = field(default_factory=list)


def select_candidates(
    profile: Profile,
    determinacy: DeterminacyReport,
    criterion: ExpensivenessCriterion,
) -> list[Candidate]:
    """Deterministic, expensive, covered-by-a-passing-test functions.

    Ordered by inclusive cost in tau's unit descending (name ascending on
    ties) and truncated to the resolved limit.  Test functions are not
    candidates (bypassing an oracle is pointless) but do count toward the
    limit's percentage base denominator of declared non-test functions.
    """
    tests = set(profile.tests)
    pool = []
    for fn, st in profile.functions.items():
        if fn in tests or fn in determinacy.nondeterministic:
            continue
        inclusive = criterion.inclusive(st)
        mean = inclusive / st.invocations if st.invocations else 0.0
        if mean <= criterion.tau:
            continue
        covering = profile.covering_passing_tests(fn)
        if not covering:
            continue
        pool.append(Candidate(fn=fn, inclusive=inclusive, covering_tests=covering))
    pool.sort(key=lambda c: (-c.inclusive, c.fn))
    limit = criterion.resolve_limit(len(profile.functions) - len(tests))
    return pool[:limit]


def cost_breakdown(profile: Profile, top_fraction: float) -> tuple[int, int, float]:
    """(top-set steps, total suite steps, share) for the most expensive functions.

    Functions are ranked and summed by inclusive steps, so the share is
    the same on every run and every machine.  Inclusive intervals overlap
    when expensive functions nest, so the share may exceed 1; this
    follows literal entry/exit differencing.
    """
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    ranked = sorted(profile.functions.items(), key=lambda kv: (-kv[1].inclusive_steps, kv[0]))
    k = math.ceil(top_fraction * len(ranked))
    top = sum(st.inclusive_steps for _, st in ranked[:k])
    total = sum(profile.functions[t].inclusive_steps for t in profile.tests)
    share = top / total if total else 1.0
    return top, total, share


# -- JSON round trip --------------------------------------------------------


def profile_to_json(profile: Profile) -> dict:
    return {
        "fingerprint": profile.fingerprint,
        "functions": {
            f: {
                "invocations": st.invocations,
                "inclusive_ns": st.inclusive_ns,
                "inclusive_steps": st.inclusive_steps,
                "mean_ns": st.mean_ns,
            }
            for f, st in sorted(profile.functions.items())
        },
        "tests": {
            t: {
                "covered": sorted(rec.covered),
                "verdict": {
                    "kind": rec.verdict.kind,
                    "node_id": rec.verdict.node_id,
                    "error": rec.verdict.error,
                },
                "duration_ns": rec.duration_ns,
                "steps": rec.steps,
                "output": rec.output,
            }
            for t, rec in sorted(profile.tests.items())
        },
    }


def profile_from_json(doc: dict, program: Program | None = None) -> Profile:
    """Read a profile, checking its fingerprint when a program is given."""
    fingerprint = typed(doc["fingerprint"], int)
    if program is not None and fingerprint != (expected := program_fingerprint(program)):
        raise FingerprintMismatch(
            f"profile fingerprint {fingerprint:#x} does not match program {expected:#x}"
        )
    functions = {
        f: FunctionStats(
            invocations=typed(d["invocations"], int),
            inclusive_ns=typed(d["inclusive_ns"], int),
            inclusive_steps=typed(d["inclusive_steps"], int),
        )
        for f, d in doc["functions"].items()
    }
    tests = {
        t: TestRecord(
            covered={typed(f, str) for f in typed(d["covered"], list)},
            verdict=Verdict(
                kind=typed(d["verdict"]["kind"], str),
                node_id=typed(d["verdict"]["node_id"], int, type(None)),
                error=typed(d["verdict"]["error"], str, type(None)),
            ),
            duration_ns=typed(d["duration_ns"], int),
            steps=typed(d["steps"], int),
            output=[typed(line, str) for line in typed(d["output"], list)],
        )
        for t, d in doc["tests"].items()
    }
    return Profile(functions=functions, tests=tests, fingerprint=fingerprint)
