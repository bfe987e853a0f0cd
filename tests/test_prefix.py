"""The memo run resumes a mutant's tests from prefixes it shares among
the mutants of a function, and gets what starting every test afresh gets.

`oracles.memo_run_unshared` is the memo run without sharing: each test of
each mutant runs from a fresh state on the mutant's program.  Every
mutant's status, killing test, cause, tests run, steps and per-function
counts must match it, serial and with two workers.

`oracles.probe_per_function` probes one (mutated function, test) at a
time, ending at the first entry into that function or any memoized one,
or at the first draw.  Every prefix of the memo run's one probe per test
must equal it.

The run probes each test its mutants run once, in the process that forks
the workers, inside the time the memo report gives as its `wall_ns`.

Run this file to print, per workload and seed, the memo run's probes,
their steps and CPU time, its resumed and charged steps, and the steps
it executed, probes included:

    PYTHONPATH=src:tests python tests/test_prefix.py
"""

import importlib.util
import os
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from memomut import corpus_names, corpus_path, runner
from memomut.analysis import analyze_program
from memomut.lang.interp import Hooks, Runtime
from memomut.lang.parser import parse
from memomut.memo.builder import provisional_memoization, record_tables
from memomut.mutation import generate_mutants
from memomut.profiler import ExpensivenessCriterion, profile_suite, select_candidates
from memomut.project import load_project
from memomut.runner import RunConfig, _probe, run_mutation_analysis

from oracles import memo_run_unshared, probe_per_function

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
    return _probe(run.program, test, frozenset(run.db.tables), [fn], run.profile.step_budget(test)).get(fn)


@pytest.mark.parametrize("tau", [tau for tau, _, _ in CRITERIA])
def test_each_shape_matches_unshared_runs(prefix_runs, tau):
    run = prefix_runs[tau]
    report = run.memo()
    assert _outcomes(report) == run.unshared()
    # Every function's mutants but those of `inc` resumed something, and
    # with every function memoized, those of `leaf` and `maybe` neither:
    # their tests call another table first.
    fns = {run.pool.mutants[r.mutant_id].fn for r in report.results if r.resumed_steps}
    resumed = {"bump", "count", "grow", "spin", "sq"}
    assert fns == (resumed if run.db.tables else resumed | {"leaf", "maybe"})
    # Both kinds of survivors the shapes are built around are there.
    survivors = {(run.pool.mutants[r.mutant_id].fn, run.pool.mutants[r.mutant_id].after)
                 for r in report.results if r.status == "survived"}
    assert {("bump", "2"), ("grow", "11")} <= survivors


def test_prefix_ends_where_the_mutant_could_differ(prefix_runs):
    run = prefix_runs[1]
    # Before the `rand` draw, not before the call that uses it.
    prefix = _shared(run, "spin", "test_rand_first")
    assert prefix.index == 1
    # A first statement that enters the function leaves nothing to share.
    assert _shared(run, "inc", "test_enter_first") is None
    # An entry through a reference ends it too.
    prefix = _shared(run, "sq", "test_ref")
    assert prefix.index == 2
    # The prefix shares `G` with the test's `a`.
    prefix = _shared(run, "bump", "test_alias")
    assert prefix.index == 3 and prefix.frame[0] is prefix.globals["G"]


def test_prefix_ends_before_any_memoized_call(prefix_runs):
    # `other` and `maybe` are not memoized at tau 1000: the prefix runs
    # through their calls and ends before the first entry into `leaf`.
    assert not {"leaf", "maybe", "other"} & set(prefix_runs[1000].db.tables)
    assert _shared(prefix_runs[1000], "leaf", "test_counts").index == 2
    # At tau 1 the first statement calls `other`, which holds a table.
    assert {"leaf", "maybe", "other"} <= set(prefix_runs[1].db.tables)
    assert _shared(prefix_runs[1], "leaf", "test_counts") is None


def test_probe_matches_per_function_probes():
    """Each function's prefix from one probe of a test equals the prefix
    of a probe of that function alone."""
    for name, program, criteria in _programs():
        for tau, limit, is_pct in criteria:
            run = _Run(program, tau, limit, is_pct)
            tables = frozenset(run.db.tables)
            targets = {}
            for fn in program.functions:
                for test in run.profile.covering_passing_tests(fn):
                    targets.setdefault(test, []).append(fn)
            for test, fns in targets.items():
                budget = run.profile.step_budget(test)
                got = _probe(program, test, tables, fns, budget)
                for fn in fns:
                    want = probe_per_function(program, fn, test, tables, budget)
                    assert got.get(fn) == want, (name, tau, fn, test)


class _Seen(Hooks):
    """`hooks`, and the state of the run they last saw."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.state = None

    def on_call_enter(self, fn, args, state):
        self.state = state
        return self.hooks.on_call_enter(fn, args, state)

    def on_call_exit(self, fn, ret, state):
        self.hooks.on_call_exit(fn, ret, state)

    def on_builtin(self, name, state):
        self.hooks.on_builtin(name, state)


def _probed_memo_run(run, workers=1):
    """`run`'s memo run, and the (process id, test, steps, CPU ns) of each
    probe it made.  A probe made while a mutant ran, in any process, comes
    back on that mutant's result."""
    prefixes, worker_run = runner.prefixes, runner._worker_run
    probes = []

    def counted(program, test, hooks, limit):
        seen = _Seen(hooks)
        t0 = time.process_time_ns()
        try:
            yield from prefixes(program, test, seen, limit)
        finally:
            probes.append((os.getpid(), test, seen.state.steps, time.process_time_ns() - t0))

    def traced(index):
        start = len(probes)
        result = worker_run(index)
        result.probes = probes[start:]
        del probes[start:]
        return result

    runner.prefixes, runner._worker_run = counted, traced
    try:
        report = run.memo(workers)
    finally:
        runner.prefixes, runner._worker_run = prefixes, worker_run
    return report, probes + [p for r in report.results for p in r.probes]


def _tests_run(run, report):
    """Every test some mutant of the report ran."""
    ran = set()
    for r in report.results:
        ran.update(run.profile.covering_passing_tests(run.pool.mutants[r.mutant_id].fn)[: r.tests_run])
    return ran


def _workload_run(workload, seed):
    project = workloads.generate(workload, seed)
    return _Run(parse(project.source), 1000, project.limit, False)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_probe_per_test(workload):
    """The run probes each test its mutants run once, before any mutant
    runs, in the process that forks the workers."""
    run = _workload_run(workload, 0)
    for workers in (1, 2):
        report, probes = _probed_memo_run(run, workers)
        probed = Counter(test for _, test, _, _ in probes)
        assert set(probed.values()) == {1}, workers
        assert set(probed) == _tests_run(run, report), workers
        assert len(probed) == {"array-state": 8, "uncached": 8, "hot-kernels-par": 12}[workload]
        assert {pid for pid, _, _, _ in probes} == {os.getpid()}, workers


def test_memo_wall_time_covers_the_probes(prefix_runs, monkeypatch):
    run = prefix_runs[1]
    probe, pause_ns, calls = runner._probe, 20_000_000, []

    def slow(*args):
        calls.append(args[1])
        time.sleep(pause_ns / 1e9)
        return probe(*args)

    monkeypatch.setattr(runner, "_probe", slow)
    report = run.memo()
    # Serial, so the mutants' own times do not overlap the probes or each other.
    assert calls and report.wall_ns >= len(calls) * pause_ns + sum(r.wall_ns for r in report.results)


if __name__ == "__main__":
    print("workload:seed      probes  probe steps  resumed steps  memo steps    executed  probe ms  memo ms")
    for workload in workloads.WORKLOADS:
        for seed in (0, 5):
            run = _workload_run(workload, seed)
            runs = []  # the fastest of three, the first of which warms the caches
            for _ in range(3):
                t0 = time.process_time_ns()
                report, probes = _probed_memo_run(run)
                runs.append((time.process_time_ns() - t0, report, probes))
            memo_ns, report, probes = min(runs, key=lambda timed: timed[0])
            probe_steps, totals = sum(p[2] for p in probes), report.totals
            # The steps the run executed: its charged steps but those it
            # resumed, and its probes'.
            executed = totals["steps"] - totals["resumed_steps"] + probe_steps
            print(
                f"{workload + ':' + str(seed):18} {len(probes):6} {probe_steps:12,}"
                f" {totals['resumed_steps']:14,} {totals['steps']:11,} {executed:11,}"
                f" {sum(p[3] for p in probes) / 1e6:9.1f} {memo_ns / 1e6:8.1f}"
            )
