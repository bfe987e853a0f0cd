"""Interpreter semantics: verdicts, step accounting, hooks, builtins."""

import random

import pytest

from memomut.lang.interp import (
    Hooks,
    MAX_CALL_DEPTH,
    Runtime,
    run_test,
)
from memomut.lang.parser import parse
from memomut.lang.values import UNIT, wrap64

from oracles import count_body_steps, run_function


def verdict_of(src, test="test_a", **kw):
    outcome, state = run_test(parse(src), test, **kw)
    return outcome.verdict, outcome, state


def test_trivial_pass():
    v, _, state = verdict_of("fn test_a(){ assert(true); }")
    assert v.passed
    assert state.output == []


def test_assert_failure_carries_node():
    v, _, _ = verdict_of("fn test_a(){ assert(1 == 2); }")
    assert v.kind == "assert_fail"
    assert v.node_id is not None


def test_step_limit():
    v, outcome, _ = verdict_of("fn test_a(){ while (true) { } }", step_limit=1000)
    assert v.kind == "step_limit"
    assert outcome.steps == 1000


@pytest.mark.parametrize(
    "body,error",
    [
        ("return 1 / 0;", "div_by_zero"),
        ("return 5 % 0;", "div_by_zero"),
        ("let a = [1]; return a[3];", "index_oob"),
        ("let a = [1]; return a[0 - 1];", "index_oob"),
        ("return 1 + true;", "type_mismatch"),
        ("if (3) { }", "type_mismatch"),
        ("return len(4);", "type_mismatch"),
        ("return rand(0);", "type_mismatch"),
    ],
)
def test_runtime_errors(body, error):
    v, _, _ = verdict_of("fn test_a(){ %s }" % body)
    assert v.kind == "runtime_error"
    assert v.error == error


def test_array_cycle_rejected():
    v, _, _ = verdict_of("fn test_a(){ let a = [1]; push(a, a); }")
    assert v.kind == "runtime_error" and v.error == "array_cycle"
    v, _, _ = verdict_of("fn test_a(){ let a = [[1]]; a[0] = a; }")
    assert v.kind == "runtime_error" and v.error == "array_cycle"


def test_wrapping_arithmetic():
    big = (1 << 63) - 1
    ret, _ = run_function(parse(f"fn f(){{ return {big} + 1; }}"), "f", [])
    assert ret == -(1 << 63) == wrap64(big + 1)


def test_truncating_division():
    src = "fn f(a, b){ return a / b; } fn g(a, b){ return a % b; }"
    p = parse(src)
    assert run_function(p, "f", [-7, 2])[0] == -3  # truncation toward zero
    assert run_function(p, "g", [-7, 2])[0] == -1


def test_array_equality_is_read_before_later_operands_run():
    # `a == b` compares the arrays before `g(a)` changes `a`: in an argument
    # list, in an array literal, and inside a callee, as a tree walk would.
    src = """
    fn g(a) { a[0] = 9; return 0; }
    fn f(x, y) { return x; }
    fn h(a, b) { return f(a == b, g(a)); }
    fn test_a() { let a = [1]; let b = [1]; assert(f(a == b, g(a))); }
    fn test_b() { let a = [1]; let b = [1]; assert(h(a, b)); }
    fn test_c() { let a = [1]; let b = [1]; let c = [a == b, g(a)]; assert(c[0]); }
    """
    for test in ("test_a", "test_b", "test_c"):
        assert verdict_of(src, test)[0].passed, test


def test_short_circuit():
    v, _, _ = verdict_of("fn test_a(){ assert(false && 1 / 0 == 0); }")
    assert v.kind == "assert_fail"  # rhs never evaluated
    v, _, _ = verdict_of("fn test_a(){ assert(true || 1 / 0 == 0); }")
    assert v.passed


def test_deep_recursion_is_runtime_error():
    v, _, _ = verdict_of("fn f(n){ return f(n + 1); } fn test_a(){ f(0); }")
    assert v.kind == "runtime_error"
    assert v.error == "stack_overflow"


def test_recursion_below_cap_ok():
    src = "fn f(n){ if (n == 0) { return 0; } return f(n - 1); } fn test_a(){ assert(f(%d) == 0); }"
    v, _, _ = verdict_of(src % (MAX_CALL_DEPTH - 5))
    assert v.passed


def test_globals_reset_between_tests():
    src = "global g = 1; fn test_a(){ g = 99; assert(g == 99); } fn test_b(){ assert(g == 1); }"
    p = parse(src)
    assert run_test(p, "test_a")[0].verdict.passed
    assert run_test(p, "test_b")[0].verdict.passed


def test_print_appends_output_log():
    _, state = run_function(parse('fn f(){ print(1); print("x"); print([1, true]); }'), "f", [])
    # Top-level strings print unquoted; nested values keep literal form.
    assert state.output == ["1", "x", "[1, true]"]


def test_indirect_call_and_fnref():
    src = "fn d(x){ return x * 2; } fn f(){ let h = &d; return h(4); }"
    assert run_function(parse(src), "f", [])[0] == 8


def test_seeded_rand_reproducible():
    p = parse("fn f(){ return rand(1000000); }")
    rt = Runtime(seed=5)
    a = run_function(p, "f", [], rng=rt.rng_for("x"))[0]
    b = run_function(p, "f", [], rng=rt.rng_for("x"))[0]
    c = run_function(p, "f", [], rng=rt.rng_for("y"))[0]
    assert a == b
    assert a != c  # different labels draw different streams


def test_fake_time_monotonic():
    p = parse("fn f(){ let a = time_now(); let b = time_now(); return b - a; }")
    rt = Runtime(seed=1, fake_time=True)
    assert run_function(p, "f", [], clock=rt.clock_for("t"))[0] > 0


def test_rng_and_clock_are_seeded_on_first_use(monkeypatch):
    made = []
    real = random.Random

    class Counted(real):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counted)
    rt = Runtime(seed=3, fake_time=True)
    quiet = parse("fn test_a(){ assert(1 + 1 == 2); }")
    outcome, _ = run_test(quiet, "test_a", rng=rt.rng_for("q"), clock=rt.clock_for("q"))
    assert outcome.verdict.passed
    run_test(quiet, "test_a")  # the default stream is lazy too
    assert made == []

    src = "fn f(){ return [rand(1000), time_now(), rand(1000), time_now()]; }"
    drawn, _ = run_function(parse(src), "f", [], rng=rt.rng_for("d"), clock=rt.clock_for("d"))
    rng, base = real("3/d"), real("3/clock/d").randrange(1 << 40)
    assert drawn == [rng.randrange(1000), base + 1, rng.randrange(1000), base + 2]
    assert made == [("3/d",), ("3/clock/d",)]  # one seeding each, on first use


class _Recorder(Hooks):
    def __init__(self):
        self.events = []

    def on_call_enter(self, fn, args, state):
        self.events.append(("enter", fn, list(args)))
        return None

    def on_call_exit(self, fn, ret, state):
        self.events.append(("exit", fn, ret))


def test_hooks_fire_in_call_order():
    src = "fn g(){ return 1; } fn f(){ return g(); } fn test_a(){ assert(f() == 1); }"
    hooks = _Recorder()
    outcome, _ = run_test(parse(src), "test_a", hooks)
    assert outcome.verdict.passed
    assert hooks.events == [
        ("enter", "test_a", []),
        ("enter", "f", []),
        ("enter", "g", []),
        ("exit", "g", 1),
        ("exit", "f", 1),
        ("exit", "test_a", UNIT),
    ]


def test_observing_hooks_are_transparent():
    src = "global g = 0; fn f(n){ g = g + n; return g; } fn test_a(){ assert(f(2) + f(3) == 7); }"
    p = parse(src)
    plain, state_plain = run_test(p, "test_a")
    hooked, state_hooked = run_test(p, "test_a", _Recorder())
    assert plain.verdict == hooked.verdict
    assert plain.steps == hooked.steps
    assert state_plain.globals == state_hooked.globals


class _SubstituteSum(Hooks):
    # Answers sum(10) with its value, charging the bypassed call's step itself.
    def on_call_enter(self, fn, args, state):
        if fn == "sum" and args == [10]:
            state.steps += 1
            return 55
        return None


def test_substitute_skips_body(sample_pipeline):
    p = sample_pipeline.program
    baseline, _ = run_test(p, "test_sum")
    subbed, _ = run_test(p, "test_sum", _SubstituteSum())
    assert subbed.verdict.passed
    body_steps = count_body_steps(p, "sum", [10])
    # The skipped body contributes nothing; the bypass itself costs one step.
    assert subbed.steps == baseline.steps - body_steps + 1


def test_determinism_without_nondet_builtins(sample_pipeline):
    p = sample_pipeline.program
    a, sa = run_test(p, "test_sum")
    b, sb = run_test(p, "test_sum")
    assert (a.verdict, a.steps) == (b.verdict, b.steps)
    assert sa.globals == sb.globals
