"""Executions of Mini code with step accounting and hooks.

Code runs as closures compiled once per function (see `compiler`); every
evaluated AST node costs one step, and the step counter doubles as the
deterministic timeout mechanism.  Instrumentation hooks observe function
entry/exit and builtin invocations, and may answer an entry event with a
Substitute to skip the function body entirely.  Every execution runs on
a fresh ExecState.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .ast import Program, per_node
from .compiler import AssertFail, Code, RuntimeErr, StepLimit, compiled
from .values import UNIT, Value, contains_array, deep_copy, format_value, wrap64

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


class ExecState:
    """The state of one execution, which hooks may read and write.

    `globals`, `output` and `steps` are the observable state; the other
    fields are what the compiled code needs at run time: the step limit,
    the call depth, each function's compiled code, the hooks, and the
    sources of nondeterminism.  The code is `code`, or else the program's
    `code_map`, compiled here before any timer in the caller starts.
    Compiled code makes every call through `invoke` or `call_builtin`.
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
        self.globals = {name: deep_copy(val) for name, val in program.globals}
        self.output: list[str] = []
        self.steps = 0
        self.limit = limit
        self.depth = 0
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

    Each execution context gets its own RNG derived from the base seed
    and a context label, so separate pipeline phases draw independent
    but reproducible streams.
    """

    seed: int = 0
    fake_time: bool = False

    def rng_for(self, label: str) -> LazyRandom:
        return LazyRandom(f"{self.seed}/{label}")

    def clock_for(self, label: str) -> Callable[[], int]:
        if not self.fake_time:
            return _real_clock_ms
        return FakeClock(f"{self.seed}/clock/{label}")

    def drew(self, state: ExecState) -> bool:
        """Whether the run of `state`, given its streams by `rng_for` and
        `clock_for`, drew a `rand` value or a fake clock reading, so that
        under another label it could have gone otherwise.  A real clock
        reads the same under every label."""
        return state.rng.rng is not None or (self.fake_time and state.clock.now is not None)


def _execute(state: ExecState, fn: str, args: list) -> tuple[Verdict, Value]:
    try:
        ret = state.invoke(fn, args, -1)
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
) -> tuple[TestOutcome, ExecState]:
    """Run one test from a fresh state; failures become the verdict.
    `code` stands in for `code_map(program)` where given."""
    if test not in program.tests:
        raise ValueError(f"not a test: {test!r}")
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    state = ExecState(program, hooks, step_limit, rng, clock, code)
    t0 = time.perf_counter_ns()
    verdict, _ = _execute(state, test, [])
    wall = time.perf_counter_ns() - t0
    outcome = TestOutcome(test=test, verdict=verdict, steps=state.steps, wall_ns=wall)
    return outcome, state


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
