"""Mutation-analysis engine: verdicts, gating, scoring, comparison."""

import json
import math
import os
import select
import signal
import time
from types import SimpleNamespace

import pytest

from memomut import runner
from memomut.analysis import analyze_program
from memomut.lang import ast
from memomut.lang.compiler import compiled
from memomut.lang.interp import Runtime, Substitute, code_map
from memomut.lang.parser import parse
from memomut.memo.builder import LookupHooks, provisional_memoization, record_tables
from memomut.memo.db import FingerprintMismatch, MemoDB, MemoTable, OutputRecord
from memomut.memo.encoding import encode_key
from memomut.mutation import MutantPool, generate_mutants
from memomut.profiler import ExpensivenessCriterion, profile_suite, select_candidates
from memomut.runner import (
    EmptyPool,
    InvalidPool,
    MutantResult,
    RunConfig,
    ScoreMismatch,
    _blocked_functions,
    compare_runs,
    compute_score,
    report_from_json,
    report_to_json,
    run_mutation_analysis,
)

from conftest import cached_pipeline, cancelling_flip_docs
from oracles import exhaustive_killed

SMALL_CORPUS = ["sample", "fib", "strings", "globals", "indirect"]


def run(pipe, memo=False, pool=None, **kw):
    cfg = RunConfig(memo=memo, **kw)
    return run_mutation_analysis(
        pipe.program,
        pool or pipe.pool,
        pipe.profile,
        pipe.bundle.closure,
        db=pipe.db if memo else None,
        cfg=cfg,
        runtime=pipe.runtime,
    )


# -- engine vs exhaustive oracle --------------------------------------------


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_killed_set_matches_exhaustive_oracle(name):
    pipe = cached_pipeline(name)
    report = run(pipe)
    engine_killed = {r.mutant_id for r in report.results if r.status == "killed"}
    oracle = exhaustive_killed(pipe.program, pipe.pool, pipe.profile, pipe.runtime)
    assert engine_killed == oracle


def test_first_kill_short_circuits():
    pipe = cached_pipeline("sample")
    report = run(pipe)
    for r in report.results:
        if r.status == "killed":
            tests = pipe.profile.covering_passing_tests(pipe.pool.mutants[r.mutant_id].fn)
            assert r.tests_run <= len(tests)
            assert r.killing_test == tests[r.tests_run - 1]
        elif r.status == "survived":
            assert r.killing_test is None and r.cause is None


def test_memo_run_has_identical_verdict_vector():
    for name in SMALL_CORPUS:
        pipe = cached_pipeline(name)
        base = run(pipe)
        memo = run(pipe, memo=True)
        vec_base = [(r.mutant_id, r.status, r.killing_test, r.cause) for r in base.results]
        vec_memo = [(r.mutant_id, r.status, r.killing_test, r.cause) for r in memo.results]
        assert vec_base == vec_memo, name
        assert base.score == memo.score


def test_memo_never_increases_steps():
    pipe = cached_pipeline("fib")
    base = run(pipe)
    memo = run(pipe, memo=True)
    for b, m in zip(base.results, memo.results):
        assert m.steps <= b.steps, b.mutant_id
    assert memo.totals["steps"] <= base.totals["steps"]


# -- interception gate ------------------------------------------------------


def _tiny_db():
    # f(n, arr) reads G, writes H and overwrites its array argument.
    db = MemoDB(fingerprint=0, tau=0, limit_value=1, limit_is_pct=False)
    table = MemoTable(fn="f", may_read=["G"], may_write=["H"], mut_args=[1])
    table.entries[encode_key([1, [0, 0]], [("G", 0)])] = OutputRecord(
        ret=2, written_globals={"H": 3}, post_args={1: [7, 8]}, output_steps=5
    )
    db.tables["f"] = table
    return db


def _state(globals_):
    # on_call_enter only touches state.globals; a bare namespace suffices.
    return SimpleNamespace(globals=globals_)


CLOSURE = {"f": {"f", "helper"}, "g": {"g"}}


def _hooks(mutated_fn):
    db = _tiny_db()
    return LookupHooks(db.tables, blocked=_blocked_functions(db, CLOSURE, mutated_fn))


def test_intercept_no_table_executes():
    hooks = _hooks("x")
    assert hooks.on_call_enter("g", [1], _state({"G": 0})) is None
    assert hooks.per_method == {}


def test_intercept_gated_when_mutated_self():
    hooks = _hooks("f")
    assert hooks.on_call_enter("f", [1, [0, 0]], _state({"G": 0})) is None
    assert hooks.per_method == {"f": {"hits": 0, "misses": 0, "gated": 1}}


def test_intercept_gated_when_mutant_in_closure():
    hooks = _hooks("helper")
    assert hooks.on_call_enter("f", [1, [0, 0]], _state({"G": 0})) is None
    assert hooks.per_method == {"f": {"hits": 0, "misses": 0, "gated": 1}}


def test_intercept_hit_bypasses():
    hooks = _hooks("unrelated")
    arr = [0, 0]
    args, state = [1, arr], _state({"G": 0, "H": 0})
    sub = hooks.on_call_enter("f", args, state)
    assert isinstance(sub, Substitute) and sub.value == 2
    # The hook made the body's effects itself: the recorded global and
    # the argument array, overwritten in place.
    assert state.globals == {"G": 0, "H": 3}
    assert args == [1, [7, 8]] and args[1] is arr
    assert hooks.per_method == {"f": {"hits": 1, "misses": 0, "gated": 0}}


def test_intercept_miss_counts():
    hooks = _hooks("unrelated")
    assert hooks.on_call_enter("f", [9, [0, 0]], _state({"G": 0})) is None
    assert hooks.per_method == {"f": {"hits": 0, "misses": 1, "gated": 0}}
    # A differing tracked global also misses.
    hooks = _hooks("unrelated")
    assert hooks.on_call_enter("f", [1, [0, 0]], _state({"G": 7})) is None
    assert hooks.per_method == {"f": {"hits": 0, "misses": 1, "gated": 0}}


def test_no_lookup_without_tables(monkeypatch):
    calls = []
    enter = LookupHooks.on_call_enter

    def counted(self, fn, args, state):
        calls.append(fn)
        return enter(self, fn, args, state)

    monkeypatch.setattr(LookupHooks, "on_call_enter", counted)

    def strip(report):
        doc = report_to_json(report)
        del doc["memo_enabled"], doc["wall_ns"]
        for m in doc["mutants"]:
            del m["wall_ns"]
        return doc

    for name in ("randarg", "nondet"):
        pipe = cached_pipeline(name, tau=1000, tau_unit="steps")
        assert not pipe.db.tables, name
        base = run(pipe)
        calls.clear()  # provisional filtering looked its raw tables up
        memo = run(pipe, memo=True)
        assert calls == [], name
        assert strip(memo) == strip(base), name


def test_no_bypass_inside_dependency_closure_of_mutant():
    pipe = cached_pipeline("fib")
    memo = run(pipe, memo=True)
    closure = pipe.bundle.closure
    for r in memo.results:
        mutant_fn = pipe.pool.mutants[r.mutant_id].fn
        for fn, counts in r.per_method.items():
            if counts["hits"]:  # this mutant's runs bypassed fn
                assert fn != mutant_fn
                assert mutant_fn not in closure[fn]


def test_gated_not_counted_as_miss():
    pipe = cached_pipeline("fib")
    memo = run(pipe, memo=True)
    fib_results = [
        r for r in memo.results if pipe.pool.mutants[r.mutant_id].fn == "fib"
    ]
    assert fib_results
    for r in fib_results:
        assert r.gated > 0 or r.status == "not_covered"
        assert r.misses == 0


# -- scoring and validation -------------------------------------------------


def test_compute_score():
    rs = [
        MutantResult(mutant_id=0, status="killed"),
        MutantResult(mutant_id=1, status="survived"),
        MutantResult(mutant_id=2, status="not_covered"),
        MutantResult(mutant_id=3, status="killed"),
    ]
    assert compute_score(rs) == 0.5
    with pytest.raises(EmptyPool):
        compute_score([])


def test_invalid_pool_rejected():
    pipe = cached_pipeline("sample")
    other = cached_pipeline("fib")
    with pytest.raises(InvalidPool):
        run_mutation_analysis(
            pipe.program, other.pool, pipe.profile, pipe.bundle.closure
        )


def test_mismatched_db_rejected():
    pipe = cached_pipeline("sample")
    other = cached_pipeline("fib")
    with pytest.raises(FingerprintMismatch):
        run_mutation_analysis(
            pipe.program,
            pipe.pool,
            pipe.profile,
            pipe.bundle.closure,
            db=other.db,
            cfg=RunConfig(memo=True),
        )


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_run_config_needs_fork_for_workers(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        RunConfig(workers=2)
    RunConfig(workers=1)


def test_a_run_caches_nothing_per_mutant(monkeypatch):
    """A mutant's code is built from the program's: no `per_node` entry
    and no `weakref.finalize` is made for it, even while it runs."""
    pipe = cached_pipeline("sample")
    run(pipe)  # the program's own code is cached by now
    sizes = len(compiled.cache), len(code_map.cache)
    seen, finalizers = set(), []
    run_test = runner.run_test

    def watched(*args, **kwargs):
        seen.add((len(compiled.cache), len(code_map.cache)))
        return run_test(*args, **kwargs)

    monkeypatch.setattr(runner, "run_test", watched)
    monkeypatch.setattr(ast.weakref, "finalize", lambda *args: finalizers.append(args))
    run(pipe)
    run(pipe, memo=True)
    assert seen == {sizes}
    assert (len(compiled.cache), len(code_map.cache)) == sizes
    assert finalizers == []


def test_not_covered_mutants_counted():
    pipe = cached_pipeline("nondet")
    report = run(pipe)
    t = report.totals
    assert t["mutants"] == t["killed"] + t["survived"] + t["not_covered"]
    assert t["mutants"] == len(pipe.pool.mutants)


# `orphan` is called by no test and `broken` only by a failing one.
UNCOVERED_SRC = """
fn work(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }
fn orphan(a) { return a + 1; }
fn broken(a) { return a * 2; }
fn test_work() { assert(work(10) == 45); assert(work(4) == 6); }
fn test_broken() { assert(broken(2) == 5); }
"""


def test_mutants_no_passing_test_covers_are_not_covered_in_both_runs():
    program = parse(UNCOVERED_SRC)
    runtime = Runtime(seed=0, fake_time=True)
    profile = profile_suite(program, runtime=runtime)
    bundle = analyze_program(program)
    criterion = ExpensivenessCriterion(tau=0, limit_value=100.0)
    candidates = select_candidates(profile, bundle.determinacy, criterion)
    raw = record_tables(program, bundle, candidates, profile, criterion=criterion, runtime=runtime)
    db, _ = provisional_memoization(program, raw, profile, bundle.closure, runtime=runtime)
    assert "work" in db.tables
    pool = generate_mutants(program)
    uncovered = {m.id for m in pool.mutants if m.fn in ("orphan", "broken")}
    assert uncovered and len(uncovered) < len(pool.mutants)
    reports = [
        run_mutation_analysis(
            program, pool, profile, bundle.closure, db=db, cfg=RunConfig(memo=memo), runtime=runtime
        )
        for memo in (False, True)
    ]
    for report in reports:
        for r in report.results:
            if r.mutant_id in uncovered:
                assert (r.status, r.tests_run, r.steps) == ("not_covered", 0, 0)
            else:
                assert r.status != "not_covered" and r.tests_run > 0
        t = report.totals
        assert t["not_covered"] == len(uncovered)
        assert report.score == t["killed"] / len(pool.mutants)
        assert t["killed"] <= len(pool.mutants) - len(uncovered)
    compare_runs(*reports)


# -- comparison block -------------------------------------------------------


def test_compare_runs_fields():
    pipe = cached_pipeline("sample")
    base = run(pipe)
    memo = run(pipe, memo=True)
    cmp = compare_runs(base, memo)
    assert cmp["score"] == round(base.score, 6)
    assert cmp["base_steps"] == base.totals["steps"]
    assert cmp["memo_steps"] == memo.totals["steps"]
    assert cmp["step_saving_pct"] == round(
        (base.totals["steps"] - memo.totals["steps"]) / base.totals["steps"] * 100, 2
    )


def _report(memo, wall_ns, statuses, steps=5, per_method=None):
    """A report with one mutant of each of `statuses`, each of `steps` steps."""
    mutants = [
        {
            "id": i,
            "status": status,
            "killing_test": "test_a" if status == "killed" else None,
            "cause": "assert_fail" if status == "killed" else None,
            "tests_run": 1,
            "steps": steps,
            "resumed_steps": 0,
            "wall_ns": 1,
            "per_method": per_method or {},
        }
        for i, status in enumerate(statuses)
    ]
    return report_from_json(
        {"fingerprint": 1, "memo_enabled": memo, "wall_ns": wall_ns, "mutants": mutants}
    )


def test_compare_runs_speedup_example():
    base = _report(False, 418_000_000_000, ["survived"], steps=1000)
    counts = {"f": {"hits": 5, "misses": 0, "gated": 1}}
    memo = _report(True, 220_000_000_000, ["survived"], steps=600, per_method=counts)
    cmp = compare_runs(base, memo)
    assert cmp["speedup_pct"] == 47.37
    assert cmp["step_saving_pct"] == 40.0
    assert cmp["hits"] == 5 and cmp["gated"] == 1


def test_compare_runs_raises_on_score_change():
    a = _report(False, 10, ["killed"] * 5 + ["survived"] * 5)
    b = _report(True, 5, ["killed"] * 6 + ["survived"] * 4)
    with pytest.raises(ScoreMismatch) as exc:
        compare_runs(a, b)
    assert exc.value.base_score == 0.5 and exc.value.memo_score == 0.6
    b.fingerprint = 2
    with pytest.raises(FingerprintMismatch):
        compare_runs(a, b)


def test_compare_runs_raises_on_cancelling_flips():
    base, memo = (report_from_json(d) for d in cancelling_flip_docs())
    assert base.score == memo.score
    with pytest.raises(ScoreMismatch, match="verdicts differ for mutants 0, 1") as exc:
        compare_runs(base, memo)
    assert exc.value.mutant_ids == [0, 1]


def test_compare_runs_checks_killing_test_and_cause():
    pipe = cached_pipeline("sample")
    base = run(pipe)
    memo = run(pipe, memo=True)
    killed = next(r for r in memo.results if r.status == "killed")
    killed.cause = "step_limit"
    with pytest.raises(ScoreMismatch) as exc:
        compare_runs(base, memo)
    assert exc.value.mutant_ids == [killed.mutant_id]
    killed.cause = next(r for r in base.results if r.mutant_id == killed.mutant_id).cause
    killed.killing_test = "test_elsewhere"
    with pytest.raises(ScoreMismatch) as exc:
        compare_runs(base, memo)
    assert exc.value.mutant_ids == [killed.mutant_id]


# -- workers and serialization ----------------------------------------------


def without_wall(report):
    doc = report_to_json(report)
    del doc["wall_ns"]
    for m in doc["mutants"]:
        del m["wall_ns"]
    return doc


@pytest.fixture
def deadline():
    """Fail a test that forks workers, rather than hang, if a run stalls."""

    def expire(signum, frame):
        raise TimeoutError("the run took over 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def few_mutants(pipe):
    """Three of the pool's mutants, whose ids are not their places in the pool."""
    return MutantPool(mutants=pipe.pool.mutants[1::5][:3], fingerprint=pipe.pool.fingerprint)


def test_parallel_run_matches_serial(deadline):
    pipe = cached_pipeline("sample")
    assert len(pipe.db.tables) == 1
    few = few_mutants(pipe)
    assert [m.id for m in few.mutants] == [1, 6, 11]
    for memo in (False, True):
        # 14 mutants over 2 and 3 workers; then more workers than mutants.
        for pool, workers in ((pipe.pool, 2), (pipe.pool, 3), (few, 5)):
            serial = run(pipe, memo=memo, pool=pool)
            parallel = run(pipe, memo=memo, pool=pool, workers=workers)
            assert without_wall(parallel) == without_wall(serial), (memo, workers)
    assert [r.mutant_id for r in serial.results] == [1, 6, 11]


def test_forks_one_child_per_chunk_past_the_first(monkeypatch, deadline):
    pipe = cached_pipeline("sample")
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    run(pipe, pool=few_mutants(pipe), workers=5)  # 3 chunks of 1 mutant
    assert len(forked) == 2
    run(pipe, workers=1)
    assert len(forked) == 2


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


@pytest.mark.parametrize(
    "where, raised, expected",
    [
        ("child", LookupError("boom"), LookupError),
        ("child", Unpicklable("boom"), RuntimeError),
        ("parent", KeyboardInterrupt("boom"), KeyboardInterrupt),
    ],
)
def test_worker_failure_reaches_parent(monkeypatch, deadline, where, raised, expected):
    pipe = cached_pipeline("sample")
    parent = os.getpid()
    worker_run = runner._worker_run
    stalled = []  # each process has its own copy

    def failing(index):
        if (os.getpid() != parent) == (where == "child"):
            raise raised
        if where == "child":
            time.sleep(0.005)  # a failing child takes a chunk before the parent is done
        elif not stalled:  # a child's first mutant stalls until it is killed
            stalled.append(index)
            time.sleep(10)
        return worker_run(index)

    monkeypatch.setattr(runner, "_worker_run", failing)
    started = time.monotonic()
    with pytest.raises(expected, match="boom") as exc:
        run(pipe, workers=3)
    if where == "parent":  # the children were killed, not waited for
        assert time.monotonic() - started < 5
    else:  # the child's traceback comes along
        text = str(exc.value if expected is RuntimeError else exc.value.__cause__)
        assert "Traceback" in text and f"{type(raised).__name__}: boom" in text
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_the_chunk_queue_fits_one_pipe_write():
    # Every chunk number is written to the queue pipe at once, before the
    # first fork, so for any worker count the queue must fit one atomic
    # write.  Up to 128 workers on Linux the chunks are about 8 per worker.
    cap = select.PIPE_BUF // runner._NUMBER_BYTES
    for workers in (1, 2, 3, 8, 127, 128, 129, 1000, 10**6):
        for n in (1, 7, 103, 1024, 1025, 10**5, 10**7):
            size = runner._chunk_size(n, workers)
            assert math.ceil(n / size) * runner._NUMBER_BYTES <= select.PIPE_BUF
            if 8 * workers <= cap:
                assert size == max(1, math.ceil(n / (8 * workers)))


def test_report_json_keeps_per_mutant_counts():
    pipe = cached_pipeline("bench_expensive", tau=1000, tau_unit="steps")
    memo = run(pipe, memo=True)
    doc = json.loads(json.dumps(report_to_json(memo)))
    for r, d in zip(memo.results, doc["mutants"]):
        assert d["per_method"] == r.per_method
        assert list(d["per_method"]) == sorted(d["per_method"])
        for kind in ("hits", "misses", "gated"):
            assert sum(counts[kind] for counts in d["per_method"].values()) == d[kind]
    assert any(d["hits"] for d in doc["mutants"])
    back = report_from_json(doc)
    assert [r.per_method for r in back.results] == [r.per_method for r in memo.results]
    assert report_to_json(back) == doc


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_memo_run_matches_serial(workers, deadline):
    # 103 mutants split into chunks that do not divide them evenly.
    pipe = cached_pipeline("bench_expensive", tau=1000, tau_unit="steps")
    assert len(pipe.db.tables) == 3 and len(pipe.pool.mutants) == 103
    serial = run(pipe, memo=True)
    parallel = run(pipe, memo=True, workers=workers)
    assert without_wall(parallel) == without_wall(serial)
    assert serial.totals["hits"] > 0 and serial.totals["gated"] > 0


def test_report_json_round_trip():
    pipe = cached_pipeline("sample")
    report = run(pipe, memo=True)
    doc = report_to_json(report)
    back = report_from_json(doc)
    assert report_to_json(back) == doc
    assert back.score == report.score
    assert back.totals == report.totals


def test_report_deterministic_modulo_wall():
    pipe = cached_pipeline("sample")
    assert without_wall(run(pipe)) == without_wall(run(pipe))
