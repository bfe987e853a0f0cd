"""Mutation-analysis engine: verdicts, gating, scoring, comparison."""

import json
from types import SimpleNamespace

import pytest

from memomut.lang.interp import Substitute
from memomut.memo.builder import LookupHooks
from memomut.memo.db import FingerprintMismatch, MemoDB, MemoTable, OutputRecord
from memomut.memo.encoding import encode_key
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


def run(pipe, memo=False, **kw):
    cfg = RunConfig(memo=memo, **kw)
    return run_mutation_analysis(
        pipe.program,
        pipe.pool,
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


def test_all_tests_flag_does_not_change_killed_set():
    pipe = cached_pipeline("sample")
    selective = run(pipe)
    everything = run(pipe, all_tests=True)
    for a, b in zip(selective.results, everything.results):
        # not_covered mutants may flip to survived/killed under all-tests
        if a.status != "not_covered":
            assert (a.status, a.mutant_id) == (b.status, b.mutant_id)
    assert everything.totals["tests_run"] >= selective.totals["tests_run"]


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
        pipe = cached_pipeline(name)
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
        RunConfig(step_limit_factor=1)
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_not_covered_mutants_counted():
    pipe = cached_pipeline("nondet")
    report = run(pipe)
    t = report.totals
    assert t["mutants"] == t["killed"] + t["survived"] + t["not_covered"]
    assert t["mutants"] == len(pipe.pool.mutants)


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


def test_compare_runs_speedup_example():
    base = report_from_json(
        {
            "fingerprint": 1,
            "memo_enabled": False,
            "score": 0.677,
            "wall_ns": 418_000_000_000,
            "totals": {"steps": 1000, "hits": 0, "misses": 0, "gated": 0},
            "mutants": [],
        }
    )
    memo = report_from_json(
        {
            "fingerprint": 1,
            "memo_enabled": True,
            "score": 0.677,
            "wall_ns": 220_000_000_000,
            "totals": {"steps": 600, "hits": 5, "misses": 0, "gated": 1},
            "mutants": [],
        }
    )
    cmp = compare_runs(base, memo)
    assert cmp["speedup_pct"] == 47.37
    assert cmp["step_saving_pct"] == 40.0
    assert cmp["hits"] == 5 and cmp["gated"] == 1


def test_compare_runs_raises_on_score_change():
    a = report_from_json(
        {
            "fingerprint": 1,
            "memo_enabled": False,
            "score": 0.5,
            "wall_ns": 10,
            "totals": {"steps": 10},
            "mutants": [],
        }
    )
    b = report_from_json(
        {
            "fingerprint": 1,
            "memo_enabled": True,
            "score": 0.6,
            "wall_ns": 5,
            "totals": {"steps": 5},
            "mutants": [],
        }
    )
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


def test_parallel_run_matches_serial():
    pipe = cached_pipeline("sample")
    serial = run(pipe)
    parallel = run(pipe, workers=4)
    vec = lambda rep: [
        (r.mutant_id, r.status, r.killing_test, r.cause, r.tests_run, r.steps)
        for r in rep.results
    ]
    assert vec(serial) == vec(parallel)
    assert serial.score == parallel.score


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
def test_parallel_memo_run_matches_serial(workers):
    # 103 mutants split into chunks that do not divide them evenly.
    pipe = cached_pipeline("bench_expensive", tau=1000, tau_unit="steps")
    assert len(pipe.db.tables) == 3 and len(pipe.pool.mutants) == 103

    def strip(report):
        doc = report_to_json(report)
        del doc["wall_ns"]
        for m in doc["mutants"]:
            del m["wall_ns"]
        return doc

    serial = run(pipe, memo=True)
    parallel = run(pipe, memo=True, workers=workers)
    assert strip(parallel) == strip(serial)
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

    def strip(doc):
        doc = dict(doc)
        doc.pop("wall_ns")
        doc["mutants"] = [
            {k: v for k, v in m.items() if k != "wall_ns"} for m in doc["mutants"]
        ]
        return doc

    assert strip(report_to_json(run(pipe))) == strip(report_to_json(run(pipe)))
