"""Executions of Mini code with step accounting and hooks.

Code runs as Python functions generated once per Mini function (see
`compiler`); every evaluated AST node costs one step, and the step
counter doubles as the deterministic timeout mechanism.  Instrumentation
hooks observe function entry and exit, and may answer an entry with the
call's value, in place of running the function's body; a run's `rand`
draws and clock readings go to the sources its caller hands it.  Every
execution runs on a fresh ExecState.  One loop, `_execute`, runs the
body of every test run, from the start or from a `Prefix`, a copy of the
state part way through the test's body, and can hand the caller such a
copy before each statement where it can tell a prefix to end.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .ast import Call, Program, per_node, walk
from .compiler import MAX_CALL_DEPTH, AssertFail, Code, RuntimeErr, StepLimit, compiled, compiled_test
from .values import UNIT, Value, copy_shared

DEFAULT_STEP_LIMIT = 10_000_000

# Each Mini call nests 1 host frame without hooks, 2 with hooks (through
# `compiler._call`, as every call from a test's statement goes), and 3
# through a function reference; and values are formatted and copied
# recursively.  Keep room above both.
if sys.getrecursionlimit() < 10_000:
    sys.setrecursionlimit(10_000)


@dataclass(frozen=True)
class Verdict:
    kind: str  # "pass" | "assert_fail" | "runtime_error" | "step_limit"
    node_id: Optional[int] = None
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.kind == "pass"


PASS = Verdict("pass")
STEP_LIMIT_VERDICT = Verdict("step_limit")


@dataclass
class TestOutcome:
    test: str
    verdict: Verdict
    steps: int
    wall_ns: int


@dataclass
class Prefix:
    """A test's state just before the top-level statement `index` of its
    body, inside the test's own call (depth 1): the globals, the test's
    frame, the output and the steps so far: what `run_test` hands `keep`
    and resumes from as `start`."""

    index: int
    globals: dict[str, Value]
    frame: list
    output: list[str]
    steps: int

    def copy(self) -> Prefix:
        """A copy sharing no list with this one.  Globals and frame are
        copied together, so an array they share stays one array."""
        memo: dict[int, list] = {}
        return Prefix(
            self.index,
            {name: copy_shared(v, memo) for name, v in self.globals.items()},
            [copy_shared(v, memo) for v in self.frame],
            list(self.output),
            self.steps,
        )


class ExecState:
    """The state of one execution, which hooks may read and write.

    `globals`, `output` and `steps` are the observable state; the other
    fields are what the compiled code needs at run time: the step limit,
    the call depth, each function's compiled code, the hooks, and the
    sources of nondeterminism: `rng.randrange(n)` for `rand` and
    `clock()` for `time_now`.
    The code is `code`, or else the program's `code_map`, compiled here
    before any timer in the caller starts.  Compiled code makes every
    call but those of `len` and `push`, which it writes inline, with
    `steps` up to date (see `compiler`).
    A test run resumed from a `Prefix` takes over the prefix's globals,
    output and steps when its body starts.
    """

    __slots__ = ("globals", "output", "steps", "limit", "depth", "code", "hooks", "rng", "clock")

    def __init__(
        self,
        program: Program,
        hooks: Optional[Hooks],
        limit: int,
        rng: Optional[LazyRandom] = None,
        clock: Optional[Callable[[], int]] = None,
        code: Optional[dict[str, Code]] = None,
    ):
        self.globals = dict(program.globals)
        self.output: list[str] = []
        self.steps = self.depth = 0
        self.limit = limit
        self.code = code_map(program) if code is None else code
        self.hooks = hooks
        self.rng = rng if rng is not None else LazyRandom()
        self.clock = clock or _real_clock_ms


@per_node
def code_map(program: Program) -> dict[str, Code]:
    """Each function's code, shared by all of a program's executions.  A
    test's code runs its body's statements one at a time (`Code.stmts`)."""
    tests = set(program.tests)
    return {name: (compiled_test if name in tests else compiled)(fn) for name, fn in program.functions.items()}


class Hooks:
    """No-op instrumentation hooks; subclasses override what they need."""

    def on_call_enter(self, fn: str, args: list, state: ExecState) -> Optional[Value]:
        """None to run `fn`'s body, or else the call's value: then the hook
        has made the body's effects on the state and the arguments and
        charged the call's steps itself, and sees no exit.  No Mini value
        is None."""
        return None

    def on_call_exit(self, fn: str, ret: Value, state: ExecState) -> None:
        pass


def _real_clock_ms() -> int:
    return time.time_ns() // 1_000_000


class LazyRandom:
    """`random.Random(seed)`, made on the first draw, so that a run that
    never calls `rand` seeds nothing."""

    __slots__ = ("seed", "bits")

    def __init__(self, seed: Optional[str] = None):
        self.seed = seed
        self.bits: Optional[Callable[[int], int]] = None  # the generator's `getrandbits`

    def randrange(self, n: int) -> int:
        """`random.Random.randrange(n)` for an int `n > 0`: the same stream,
        drawn as its `_randbelow_with_getrandbits` draws it."""
        bits = self.bits
        if bits is None:
            bits = self.bits = random.Random(self.seed).getrandbits
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r


class FakeClock:
    """A clock that reads one more on every reading, from a base drawn
    from `random.Random(seed)` on the first, so that a run that never
    calls `time_now` seeds nothing."""

    __slots__ = ("seed", "now")

    def __init__(self, seed: str):
        self.seed = seed
        self.now: Optional[int] = None

    def __call__(self) -> int:
        if self.now is None:
            self.now = random.Random(self.seed).randrange(1 << 40)
        self.now += 1
        return self.now


@dataclass
class Runtime:
    """Seed policy for the nondeterminism sources.

    A test's `rand` stream and fake clock are seeded from the base seed
    and the test's name alone.  Every run of the test, in every stage and
    for every mutant, draws them, so it draws what the profiled run drew
    until it makes a different sequence of draws.
    """

    seed: int = 0
    fake_time: bool = False

    def rng_for(self, test: str) -> LazyRandom:
        return LazyRandom(f"{self.seed}/{test}")

    def clock_for(self, test: str) -> Callable[[], int]:
        if not self.fake_time:
            return _real_clock_ms
        return FakeClock(f"{self.seed}/clock/{test}")


@per_node
def _prefix_ends(fn) -> tuple[bool, ...]:
    """For each top-level statement of test `fn`'s body, whether a prefix
    can end before it: it is not the first, and it can call a declared
    function, directly or through a reference, or `rand` or `time_now`."""
    return tuple(
        i > 0 and any(type(n) is Call and (not n.is_builtin or n.name in ("rand", "time_now")) for n in walk(stmt))
        for i, stmt in enumerate(fn.body.stmts)
    )


def _execute(state: ExecState, test: str, start: Optional[Prefix], keep, ends) -> Verdict:
    """Run `test`'s body as `compiler._call` runs a call, from its start
    or from `start`, handing `keep` the prefix before each statement
    `ends` marks; failures become the verdict.  A run from the start is
    one from the prefix before its first statement."""
    code, hooks = state.code[test], state.hooks
    try:
        if start is None:
            if hooks is not None:
                hooks.on_call_enter(test, [], state)  # never answered: no test holds a table
            start = Prefix(0, state.globals, [None] * code.nslots, state.output, 1)  # 1: the body block's step
        state.globals, state.output, state.steps, state.depth = start.globals, start.output, start.steps, 1
        if state.steps >= state.limit:  # only from the start, at a limit of 1
            raise StepLimit()
        for i, stmt in enumerate(code.stmts[start.index:], start.index):
            if keep is not None and ends[i]:
                keep(Prefix(i, state.globals, start.frame, state.output, state.steps).copy())
            ret = stmt(state, start.frame)
            if ret is not None:
                break
        else:
            ret = UNIT
        state.depth -= 1
        if hooks is not None:
            hooks.on_call_exit(test, ret, state)
        return PASS
    except AssertFail as a:
        return Verdict("assert_fail", node_id=a.node_id)
    except RuntimeErr as r:
        return Verdict("runtime_error", node_id=r.node_id, error=r.kind)
    except StepLimit:
        return STEP_LIMIT_VERDICT


def run_test(
    program: Program,
    test: str,
    hooks: Optional[Hooks] = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    rng: Optional[LazyRandom] = None,
    clock: Optional[Callable[[], int]] = None,
    code: Optional[dict[str, Code]] = None,
    start: Optional[Prefix] = None,
    keep: Optional[Callable[[Prefix], None]] = None,
) -> tuple[TestOutcome, ExecState]:
    """Run one test on a fresh state; failures become the verdict.
    `code` stands in for `code_map(program)` where given.

    With a `start`, a prefix of this test that the caller knows this run
    would reach, the run skips the prefix: it begins from a copy of the
    prefix's state, at its statement, its steps count on from the
    prefix's, and the hooks see only what follows.  `start` is left
    unchanged, so one prefix can start any number of runs.

    With a `keep`, the run hands it a copy of its state before each
    statement where the hooks can first see an entry, or `rng` or `clock`
    a draw (`_prefix_ends`).  An exception that a hook, a source or
    `keep` raises passes to the caller."""
    if test not in program.tests:
        raise ValueError(f"not a test: {test!r}")
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    if start is not None:
        start = start.copy()
    ends = _prefix_ends(program.functions[test]) if keep is not None else None
    state = ExecState(program, hooks, step_limit, rng, clock, code)
    t0 = time.perf_counter_ns()
    verdict = _execute(state, test, start, keep, ends)
    wall = time.perf_counter_ns() - t0
    outcome = TestOutcome(test=test, verdict=verdict, steps=state.steps, wall_ns=wall)
    return outcome, state
