"""Executions of Mini code with step accounting and hooks.

Code runs as closures compiled once per function (see `compiler`); every
evaluated AST node costs one step, and the step counter doubles as the
deterministic timeout mechanism.  Instrumentation hooks observe function
entry/exit and builtin invocations, and may answer an entry event with a
Substitute to skip the function body entirely.  Every execution runs on
a fresh ExecState, which a test run may start from a `Prefix`, a copy of
the state part way through the test's body, instead of from the start.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .ast import Program, per_node
from .compiler import AssertFail, Code, RuntimeErr, StepLimit, compiled
from .values import UNIT, Value, contains_array, copy_shared, deep_copy, format_value, wrap64

DEFAULT_STEP_LIMIT = 10_000_000

# Deterministic recursion bound: exceeding it is a runtime error (kind
# "stack_overflow"), so runaway-recursion mutants die identically on
# every run instead of exhausting the host stack.
MAX_CALL_DEPTH = 200

# Each Mini call nests about 8 host frames; keep room above MAX_CALL_DEPTH.
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
    frame, the output and the steps so far."""

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
    sources of nondeterminism.  The code is `code`, or else the program's
    `code_map`, compiled here before any timer in the caller starts.
    Compiled code makes every call through `invoke` or `call_builtin`.
    A state made with a `start` takes over its globals, output and steps,
    at depth 1, in place of the program's initial state.
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
        start: Optional[Prefix] = None,
    ):
        if start is None:
            self.globals = {name: deep_copy(val) for name, val in program.globals}
            self.output: list[str] = []
            self.steps = 0
            self.depth = 0
        else:
            self.globals, self.output, self.steps, self.depth = start.globals, start.output, start.steps, 1
        self.limit = limit
        self.code = code_map(program) if code is None else code
        self.hooks = hooks
        self.rng = rng if rng is not None else LazyRandom()
        self.clock = clock or _real_clock_ms

    def invoke(self, name: str, args: list, site: int) -> Value:
        """Call function `name` from the call node `site` (-1 for the entry call)."""
        code = self.code[name]
        if len(args) != code.arity:
            raise RuntimeErr("type_mismatch", site)
        if self.depth >= MAX_CALL_DEPTH:
            raise RuntimeErr("stack_overflow", site)
        hooks = self.hooks
        if hooks is not None:
            sub = hooks.on_call_enter(name, args, self)
            if sub is not None:
                self.steps = n = self.steps + 1
                if n >= self.limit:
                    raise StepLimit()
                return sub.value
        self.depth += 1
        # The slots are a new list: hooks keep `args` as the call's arguments.
        ret = code.body(self, args + code.pad)
        self.depth -= 1
        if ret is None:
            ret = UNIT
        if hooks is not None:
            hooks.on_call_exit(name, ret, self)
        return ret

    def call_builtin(self, name: str, args: list, site: int) -> Value:
        """Call builtin `name`; errors are reported at the call node `site`."""
        if self.hooks is not None:
            self.hooks.on_builtin(name, self)
        if name == "len":
            if len(args) != 1 or not isinstance(args[0], (list, str)):
                raise RuntimeErr("type_mismatch", site)
            return len(args[0])
        if name == "push":
            if len(args) != 2 or not isinstance(args[0], list):
                raise RuntimeErr("type_mismatch", site)
            arr, v = args
            if contains_array(v, arr):
                raise RuntimeErr("array_cycle", site)
            arr.append(v)
            return UNIT
        if name == "print":
            if len(args) != 1:
                raise RuntimeErr("type_mismatch", site)
            self.output.append(format_value(args[0]))
            return UNIT
        if name == "time_now":
            if args:
                raise RuntimeErr("type_mismatch", site)
            return wrap64(self.clock())
        if name == "rand":
            if len(args) != 1 or type(args[0]) is not int or args[0] <= 0:
                raise RuntimeErr("type_mismatch", site)
            return self.rng.randrange(args[0])
        raise RuntimeErr("type_mismatch", site)


@per_node
def code_map(program: Program) -> dict[str, Code]:
    """Each function's code, shared by all of a program's executions."""
    return {name: compiled(fn) for name, fn in program.functions.items()}


@dataclass
class Substitute:
    """Hook answer that skips a function body.

    The hook has already made the body's effects on the state and the
    arguments itself; the bypassed call is charged a single step and
    returns `value`.
    """

    value: Value


class Hooks:
    """No-op instrumentation hooks; subclasses override what they need."""

    def on_call_enter(self, fn: str, args: list, state: ExecState) -> Optional[Substitute]:
        return None

    def on_call_exit(self, fn: str, ret: Value, state: ExecState) -> None:
        pass

    def on_builtin(self, name: str, state: ExecState) -> None:
        pass


class MiniExecutionError(Exception):
    """Raised by run_function when the callee does not complete normally."""

    def __init__(self, verdict: Verdict):
        super().__init__(verdict)
        self.verdict = verdict


def _real_clock_ms() -> int:
    return time.time_ns() // 1_000_000


class LazyRandom:
    """`random.Random(seed)`, made on the first draw, so that a run that
    never calls `rand` seeds nothing."""

    __slots__ = ("seed", "rng")

    def __init__(self, seed: Optional[str] = None):
        self.seed = seed
        self.rng: Optional[random.Random] = None

    def randrange(self, n: int) -> int:
        if self.rng is None:
            self.rng = random.Random(self.seed)
        return self.rng.randrange(n)


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


def _resume(state: ExecState, test: str, start: Prefix) -> Value:
    """The rest of `test`'s body from `start`, ended as `invoke` ends a call."""
    frame = start.frame
    for stmt in state.code[test].stmts[start.index:]:
        ret = stmt(state, frame)
        if ret is not None:
            break
    else:
        ret = UNIT
    state.depth -= 1
    if state.hooks is not None:
        state.hooks.on_call_exit(test, ret, state)
    return ret


def _execute(state: ExecState, fn: str, args: list, start: Optional[Prefix] = None) -> tuple[Verdict, Value]:
    """Call `fn`, or resume the test `fn` from `start`; failures become the verdict."""
    try:
        ret = state.invoke(fn, args, -1) if start is None else _resume(state, fn, start)
        return PASS, ret
    except AssertFail as a:
        return Verdict("assert_fail", node_id=a.node_id), UNIT
    except RuntimeErr as r:
        return Verdict("runtime_error", node_id=r.node_id, error=r.kind), UNIT
    except StepLimit:
        return STEP_LIMIT_VERDICT, UNIT


def run_test(
    program: Program,
    test: str,
    hooks: Optional[Hooks] = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    rng: Optional[LazyRandom] = None,
    clock: Optional[Callable[[], int]] = None,
    code: Optional[dict[str, Code]] = None,
    start: Optional[Prefix] = None,
) -> tuple[TestOutcome, ExecState]:
    """Run one test on a fresh state; failures become the verdict.
    `code` stands in for `code_map(program)` where given.

    With a `start`, a prefix of this test that the caller knows this run
    would reach, the run skips the prefix: it begins from a copy of the
    prefix's state, at its statement, its steps count on from the
    prefix's, and the hooks see only what follows.  The globals are not
    copied from the program first, and `start` is left unchanged, so one
    prefix can start any number of runs."""
    if test not in program.tests:
        raise ValueError(f"not a test: {test!r}")
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    if start is not None:
        start = start.copy()
    state = ExecState(program, hooks, step_limit, rng, clock, code, start)
    t0 = time.perf_counter_ns()
    verdict, _ = _execute(state, test, [], start)
    wall = time.perf_counter_ns() - t0
    outcome = TestOutcome(test=test, verdict=verdict, steps=state.steps, wall_ns=wall)
    return outcome, state


def prefixes(program: Program, test: str, hooks: Optional[Hooks], step_limit: int) -> Iterator[Prefix]:
    """Run `test` one top-level statement of its body at a time, yielding
    before each a copy of the state so far.

    The iteration ends where the test returns, fails or hits a limit; an
    exception a hook raises passes to the caller.  The run's `rand` and
    clock are unseeded, so a caller that needs a reproducible prefix stops
    it, through its hooks, before either is called.
    """
    state = ExecState(program, hooks, step_limit)
    code = state.code[test]
    frame = list(code.pad)
    try:
        # The test's own entry, as `invoke` shows it to the hooks.
        if hooks is not None and hooks.on_call_enter(test, [], state) is not None:
            return
        state.depth = 1
        state.steps = 1  # the body block's own step
        if step_limit <= 1:
            return  # that step hits the limit
        for index, stmt in enumerate(code.stmts):
            yield Prefix(index, state.globals, frame, state.output, state.steps).copy()
            if stmt(state, frame) is not None:
                return
    except (AssertFail, RuntimeErr, StepLimit):
        return


def run_function(
    program: Program,
    fn: str,
    args: list,
    hooks: Optional[Hooks] = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    rng: Optional[LazyRandom] = None,
    clock: Optional[Callable[[], int]] = None,
) -> tuple[Value, ExecState]:
    """Call a single function from a fresh state; errors raise."""
    state = ExecState(program, hooks, step_limit, rng, clock)
    verdict, ret = _execute(state, fn, args)
    if not verdict.passed:
        raise MiniExecutionError(verdict)
    return ret, state
