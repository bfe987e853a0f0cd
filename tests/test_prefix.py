"""The memo run resumes a mutant's tests from prefixes it shares among
the mutants of a function, and gets what starting every test afresh gets.

`oracles.memo_run_unshared` is the memo run without sharing: each test of
each mutant runs from a fresh state on the mutant's program.  Every
mutant's status, killing test, cause, tests run, steps and per-function
counts must match it, serial and with two workers.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from memomut import corpus_names, corpus_path
from memomut.analysis import analyze_program
from memomut.lang.interp import Runtime
from memomut.lang.parser import parse
from memomut.memo.builder import provisional_memoization, record_tables
from memomut.mutation import generate_mutants
from memomut.profiler import ExpensivenessCriterion, profile_suite, select_candidates
from memomut.project import load_project
from memomut.runner import RunConfig, _probe, _blocked_functions, run_mutation_analysis

from oracles import memo_run_unshared

TESTS = Path(__file__).resolve().parent
WORKLOADS = TESTS.parent / "benchmarks" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()

# (tau in steps, limit, limit is a percentage): a typical cut, and every
# candidate memoized.
CRITERIA = ((1000, 20.0, True), (1, 100.0, True))


def _mini(name):
    return parse((TESTS / f"{name}.mini").read_text(encoding="utf-8"))


def _programs():
    """(name, program, criteria) for every program the check runs on."""
    for name in corpus_names():
        yield name, load_project(corpus_path(name)), CRITERIA
    for name in ("edges", "limits", "prefix"):
        yield name, _mini(name), CRITERIA
    for workload in workloads.WORKLOADS:
        for seed in (0, 5):
            project = workloads.generate(workload, seed)
            yield f"{workload}:{seed}", parse(project.source), ((1000, project.limit, False),)


class _Run:
    """A program's memoized pipeline up to the mutant runs."""

    def __init__(self, program, tau, limit, is_pct):
        self.program = program
        self.runtime = Runtime(seed=0, fake_time=True)
        self.profile = profile_suite(program, runtime=self.runtime)
        self.bundle = analyze_program(program)
        criterion = ExpensivenessCriterion(tau=tau, tau_unit="steps", limit_value=limit, limit_is_pct=is_pct)
        cands = select_candidates(self.profile, self.bundle.determinacy, criterion)
        raw = record_tables(program, self.bundle, cands, self.profile, criterion=criterion, runtime=self.runtime)
        self.db, _ = provisional_memoization(program, raw, self.profile, self.bundle.closure, runtime=self.runtime)
        self.pool = generate_mutants(program)

    def memo(self, workers=1):
        cfg = RunConfig(memo=True, workers=workers)
        return run_mutation_analysis(
            self.program, self.pool, self.profile, self.bundle.closure, db=self.db, cfg=cfg, runtime=self.runtime
        )

    def unshared(self):
        return memo_run_unshared(self.program, self.pool, self.profile, self.bundle.closure, self.db, self.runtime)


def _outcomes(report):
    return {
        r.mutant_id: (r.status, r.killing_test, r.cause, r.tests_run, r.steps, r.per_method)
        for r in report.results
    }


def test_resumed_memo_run_matches_unshared_runs():
    resumed = 0
    for name, program, criteria in _programs():
        for tau, limit, is_pct in criteria:
            run = _Run(program, tau, limit, is_pct)
            want = run.unshared()
            for workers in (1, 2):
                report = run.memo(workers)
                assert _outcomes(report) == want, (name, tau, workers)
            resumed += report.totals["resumed_steps"]
    assert resumed


@pytest.fixture(scope="module")
def prefix_runs():
    return {tau: _Run(_mini("prefix"), tau, limit, is_pct) for tau, limit, is_pct in CRITERIA}


def _shared(run, fn, test):
    blocked = _blocked_functions(run.db, run.bundle.closure, fn) if run.db.tables else frozenset()
    tables = run.db.tables or None
    return _probe(run.program, fn, test, tables, blocked, run.profile.step_budget(test))


@pytest.mark.parametrize("tau", [tau for tau, _, _ in CRITERIA])
def test_each_shape_matches_unshared_runs(prefix_runs, tau):
    run = prefix_runs[tau]
    report = run.memo()
    assert _outcomes(report) == run.unshared()
    # Every function's mutants but those of `inc` resumed something.
    fns = {run.pool.mutants[r.mutant_id].fn for r in report.results if r.resumed_steps}
    assert fns == {"bump", "count", "grow", "leaf", "maybe", "spin", "sq"}
    # Both kinds of survivors the shapes are built around are there.
    survivors = {(run.pool.mutants[r.mutant_id].fn, run.pool.mutants[r.mutant_id].after)
                 for r in report.results if r.status == "survived"}
    assert {("bump", "2"), ("grow", "11")} <= survivors


def test_prefix_ends_where_the_mutant_could_differ(prefix_runs):
    run = prefix_runs[1]
    # Before the `rand` draw, not before the call that uses it.
    prefix, _ = _shared(run, "spin", "test_rand_first")
    assert prefix.index == 1
    # A first statement that enters the function leaves nothing to share.
    assert _shared(run, "inc", "test_enter_first") is None
    # An entry through a reference ends it too.
    prefix, _ = _shared(run, "sq", "test_ref")
    assert prefix.index == 2
    # The prefix shares `G` with the test's `a`.
    prefix, _ = _shared(run, "bump", "test_alias")
    assert prefix.index == 3 and prefix.frame[0] is prefix.globals["G"]


def test_prefix_counts_add_up(prefix_runs):
    run = prefix_runs[1]
    assert {"leaf", "maybe", "other"} <= set(run.db.tables)
    prefix, counts = _shared(run, "leaf", "test_counts")
    assert prefix.index == 2
    assert counts == {"other": {"hits": 1, "misses": 0, "gated": 0}, "maybe": {"hits": 0, "misses": 0, "gated": 1}}
