"""Profiling, candidate selection, and cost breakdown."""

import pytest

from memomut.analysis import DeterminacyReport, analyze_program
from memomut.lang.interp import Runtime
from memomut.lang.parser import parse
from memomut.profiler import (
    ExpensivenessCriterion,
    FunctionStats,
    Profile,
    SuiteEmpty,
    TestRecord,
    cost_breakdown,
    profile_from_json,
    profile_suite,
    profile_to_json,
    select_candidates,
)
from memomut.lang.interp import Verdict

from oracles import count_body_steps


def test_empty_suite_rejected():
    with pytest.raises(SuiteEmpty):
        profile_suite(parse("fn f(){}"))


def test_invocation_counts():
    src = "fn g(){} fn f(){ g(); g(); } fn test_a(){ f(); g(); } fn test_b(){ f(); }"
    prof = profile_suite(parse(src))
    assert prof.functions["f"].invocations == 2
    assert prof.functions["g"].invocations == 5
    assert prof.functions["test_a"].invocations == 1


def test_recursion_counts_each_entry():
    src = "fn f(n){ if (n == 0) { return 0; } return f(n - 1); } fn test_a(){ f(2); }"
    prof = profile_suite(parse(src))
    assert prof.functions["f"].invocations == 3  # depth 3: f(2), f(1), f(0)


def test_coverage_and_verdicts():
    src = "fn g(){} fn h(){} fn test_a(){ g(); } fn test_b(){ assert(false); h(); }"
    prof = profile_suite(parse(src))
    assert prof.tests["test_a"].covered == {"test_a", "g"}
    assert prof.tests["test_a"].verdict.passed
    assert not prof.tests["test_b"].verdict.passed
    assert prof.covering_passing_tests("g") == ["test_a"]
    assert prof.covering_passing_tests("h") == []  # only covered by a failing test


def test_inclusive_steps_match_oracle(sample_pipeline):
    prof = sample_pipeline.profile
    per_call = count_body_steps(sample_pipeline.program, "sum", [10])
    # sum is called once with 10 (test_sum) and once with 4 (scale path).
    expected = per_call + count_body_steps(sample_pipeline.program, "sum", [4])
    assert prof.functions["sum"].inclusive_steps == expected
    assert prof.functions["sum"].invocations == 2


def test_nested_inclusive_time_dominates():
    src = "fn inner(){ let i = 400; while (i > 0) { i = i - 1; } } fn outer(){ inner(); } fn test_a(){ outer(); }"
    prof = profile_suite(parse(src))
    assert prof.functions["outer"].inclusive_ns >= prof.functions["inner"].inclusive_ns
    assert prof.functions["outer"].inclusive_steps > prof.functions["inner"].inclusive_steps


def _mk_profile(mean_ns_by_fn, tests=("test_a",), invocations=1):
    functions = {
        fn: FunctionStats(
            invocations=invocations, inclusive_ns=int(ns * invocations), inclusive_steps=10
        )
        for fn, ns in mean_ns_by_fn.items()
    }
    recs = {}
    for t in tests:
        functions.setdefault(t, FunctionStats(invocations=1, inclusive_ns=1, inclusive_steps=1))
        recs[t] = TestRecord(
            covered=set(functions),
            verdict=Verdict(kind="pass"),
            duration_ns=1,
            steps=10,
            output=[],
        )
    return Profile(functions=functions, tests=recs, fingerprint=0)


_NO_NONDET = DeterminacyReport(nondeterministic=set(), reasons={})


def test_select_candidates_mean_threshold():
    # Means 5 ms, 0.5 ms, 2 ms; tau = 1 ms keeps the first and third.
    prof = _mk_profile({"first": 5e6, "second": 5e5, "third": 2e6})
    crit = ExpensivenessCriterion(tau=1_000_000, tau_unit="ns", limit_value=100.0)
    got = select_candidates(prof, _NO_NONDET, crit)
    assert [c.fn for c in got] == ["first", "third"]


def test_select_candidates_strict_inequality():
    prof = _mk_profile({"at_tau": 1_000_000, "above": 1_000_001})
    crit = ExpensivenessCriterion(tau=1_000_000, tau_unit="ns", limit_value=100.0)
    assert [c.fn for c in select_candidates(prof, _NO_NONDET, crit)] == ["above"]


def test_select_candidates_limit_ceil():
    prof = _mk_profile({f"f{i}": 1e7 + i for i in range(5)})
    crit = ExpensivenessCriterion(tau=1_000, tau_unit="ns", limit_value=20.0)
    got = select_candidates(prof, _NO_NONDET, crit)
    assert len(got) == 1  # ceil(20% of 5)
    assert got[0].fn == "f4"  # highest inclusive time wins


def test_select_candidates_absolute_limit_and_tie_order():
    prof = _mk_profile({"b": 5e6, "a": 5e6, "c": 9e6})
    crit = ExpensivenessCriterion(tau=1_000, tau_unit="ns", limit_value=2, limit_is_pct=False)
    assert [c.fn for c in select_candidates(prof, _NO_NONDET, crit)] == ["c", "a"]


def test_select_candidates_skips_nondet_and_tests():
    prof = _mk_profile({"noisy": 9e6, "quiet": 8e6})
    det = DeterminacyReport(nondeterministic={"noisy"}, reasons={"noisy": "calls_rand"})
    got = select_candidates(prof, det, ExpensivenessCriterion(tau=1_000, tau_unit="ns", limit_value=100.0))
    assert [c.fn for c in got] == ["quiet"]
    assert got[0].covering_tests == ["test_a"]


def test_select_candidates_cumulative_mode():
    # many_cheap's summed cost is above tau but its mean per call is not.
    prof = _mk_profile({"many_cheap": 600, "one_pricey": 2000}, invocations=1000)
    crit = ExpensivenessCriterion(tau=1_000, tau_unit="ns", limit_value=100.0)
    assert [c.fn for c in select_candidates(prof, _NO_NONDET, crit)] == ["one_pricey"]


def test_resolve_limit_examples():
    assert ExpensivenessCriterion(limit_value=20.0).resolve_limit(10) == 2
    assert ExpensivenessCriterion(limit_value=20.0).resolve_limit(5) == 1
    assert ExpensivenessCriterion(limit_value=3, limit_is_pct=False).resolve_limit(100) == 3


def test_cost_breakdown_simple_ratio():
    prof = _mk_profile({"heavy": 0, "light": 0})
    prof.functions["heavy"].inclusive_steps = 300
    prof.functions["light"].inclusive_steps = 50
    prof.functions["test_a"].inclusive_steps = 400
    # ceil(0.5 * 3) = 2 ranked functions: test_a (400) + heavy (300).
    top, total, share = cost_breakdown(prof, 0.5)
    assert (top, total) == (700, 400)
    assert share == pytest.approx(1.75)  # nesting double-count pushes it past 1


def test_cost_breakdown_subunit_share():
    prof = _mk_profile({"heavy": 0, "light": 0, "mid": 0})
    prof.functions["heavy"].inclusive_steps = 300
    prof.functions["mid"].inclusive_steps = 200
    prof.functions["light"].inclusive_steps = 50
    prof.functions["test_a"].inclusive_steps = 400
    # ceil(0.25 * 4) = 1 ranked function: test_a itself.
    top, total, share = cost_breakdown(prof, 0.25)
    assert (top, total) == (400, 400)
    assert share == pytest.approx(1.0)


def test_cost_breakdown_single_function_program():
    prof = profile_suite(parse("fn test_only(){ assert(1 == 1); }"))
    _, _, share = cost_breakdown(prof, 1.0)
    assert share == pytest.approx(1.0)


def test_cost_breakdown_rejects_bad_fraction():
    prof = _mk_profile({"f": 10})
    for bad in (0, -0.1, 1.5):
        with pytest.raises(ValueError):
            cost_breakdown(prof, bad)


def test_profile_json_round_trip(sample_pipeline):
    doc = profile_to_json(sample_pipeline.profile)
    back = profile_from_json(doc)
    assert profile_to_json(back) == doc
    assert back.covering_passing_tests("sum") == sample_pipeline.profile.covering_passing_tests("sum")
    # Profile files that carry the old step_limit key still load.
    assert profile_to_json(profile_from_json({**doc, "step_limit": 5_000_000})) == doc


def test_profile_deterministic_counts():
    src = "fn f(n){ return n * 2; } fn test_a(){ assert(f(rand(10)) >= 0); }"
    p = parse(src)
    a = profile_suite(p, runtime=Runtime(seed=3, fake_time=True))
    b = profile_suite(p, runtime=Runtime(seed=3, fake_time=True))
    assert a.tests["test_a"].steps == b.tests["test_a"].steps
    assert a.functions["f"].inclusive_steps == b.functions["f"].inclusive_steps
