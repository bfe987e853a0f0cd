"""A mutant's code from its function's schema runs as the mutant's
function compiled from scratch.

No mutant is compiled on its own: `mutation.apply_mutant` binds the
mutant's index in the schema of the program's function
(`mutation.mutant_schema`), which holds every mutant of that function
behind a switch.  For every mutant of the corpus programs, `edges.mini`,
`limits.mini` and the benchmark workloads at seeds 0 and 5, each test
that covers the mutated function runs once with that code and once with
the mutant's function built as an AST and compiled from scratch
(`compile_function(oracles.mutated_program(...).functions[fn])`); the
verdict, error node, steps, output and final globals must agree.
For every mutant of `limits.mini` and `edges.mini`, the two also run at
every step limit from 1 to the full count + 1, under a hook that logs
every call entry and exit with the step count, and must agree there too;
the schema's code run with no hooks must give the same there as well.

(The file and its first test keep the names they had when a mutant's
function was compiled along its copied path.)

Run this file to print, per workload and seed, the time to compile the
program's code and its mutated functions' schemas, the AST nodes of the
Python source each of the two compiles, the 64-bit wrap lines and the
lines that raise a type mismatch in the program's code, the memo run's
fixed cost per mutant (what it spends outside the tests), and the steps
per second the base and memo runs execute:

    PYTHONPATH=src:tests python tests/test_path_compile.py
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from memomut import corpus_names, corpus_path, runner
from memomut.lang.compiler import compile_function, compile_test
from memomut.lang import compiler, interp
from memomut.lang.interp import PASS, Runtime, code_map, run_test
from memomut.lang.parser import parse
from memomut.lang.values import literal_str
from memomut.mutation import apply_mutant, generate_mutants, mutant_schema
from memomut.profiler import profile_suite
from memomut.project import load_project
from memomut.runner import RunConfig, run_mutation_analysis

from oracles import mutated_program
from test_equivalence import EDGES, _EventLog
from test_step_limits import LIMITS

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()

PROGRAMS = [
    *(pytest.param(lambda name=name: load_project(corpus_path(name)), id=name) for name in corpus_names()),
    pytest.param(lambda: load_project(EDGES), id="edges"),
    pytest.param(lambda: load_project(LIMITS), id="limits"),
    *(
        pytest.param(lambda w=w, seed=seed: parse(workloads.generate(w, seed).source), id=f"{w}-{seed}")
        for w in workloads.WORKLOADS
        for seed in (0, 5)
    ),
]


def _mutant_runs(program):
    """(mutant, test, the schema's code, the scratch code) for each mutant
    of `program` and each test that covers its function, and the profile."""
    runtime = Runtime(seed=0, fake_time=True)
    profile = profile_suite(program, runtime=runtime)
    base = code_map(program)
    runs = []
    for m in generate_mutants(program).mutants:
        from_schema = apply_mutant(program, m)
        scratch = {**base, m.fn: compile_function(mutated_program(program, m).functions[m.fn])}
        for test, record in profile.tests.items():
            if m.fn in record.covered:
                runs.append((m, test, from_schema, scratch))
    return runs, profile, runtime


def _run(program, test, limit, runtime, code, hooks=None):
    outcome, state = run_test(
        program, test, hooks, step_limit=limit, rng=runtime.rng_for(test), clock=runtime.clock_for(test), code=code
    )
    v = outcome.verdict
    final = sorted((g, literal_str(value)) for g, value in state.globals.items())
    return v.kind, v.node_id, v.error, outcome.steps, state.output, final


@pytest.mark.parametrize("load", PROGRAMS)
def test_path_compiled_mutants_run_as_compiled_from_scratch(load):
    program = load()
    runs, profile, runtime = _mutant_runs(program)
    for m, test, from_schema, scratch in runs:
        budget = profile.step_budget(test)
        got = _run(program, test, budget, runtime, from_schema)
        assert got == _run(program, test, budget, runtime, scratch), (m, test)
    assert runs


@pytest.mark.parametrize("path", [EDGES, LIMITS], ids=["edges", "limits"])
def test_schema_cuts_every_step_limit_as_compiled_from_scratch(path):
    program = load_project(path)
    runs, profile, runtime = _mutant_runs(program)
    for m, test, from_schema, scratch in runs:
        full = _run(program, test, profile.step_budget(test), runtime, scratch)[3]
        for limit in range(1, full + 2):
            logs = _EventLog(), _EventLog()
            got = _run(program, test, limit, runtime, from_schema, logs[0]) + (logs[0].events,)
            want = _run(program, test, limit, runtime, scratch, logs[1]) + (logs[1].events,)
            assert got == want, (m, test, limit)
            assert _run(program, test, limit, runtime, from_schema) == got[:-1], (m, test, limit)
    assert runs


# -- the per-layer numbers ----------------------------------------------------


def _best_ms(f, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        f()
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e6


def _generated(compile_all) -> tuple[int, int, int]:
    """The AST nodes, the 64-bit wrap lines and the lines that raise a
    type mismatch of the Python source that `compile_all` has compiled."""
    sources, real = [], compiler._exec

    def spy(fn, lines, refs):
        sources.append("\n".join(lines))
        return real(fn, lines, refs)

    compiler._exec = spy
    try:
        compile_all()
    finally:
        compiler._exec = real
    lines = [line for source in sources for line in source.splitlines()]
    return (
        sum(sum(1 for _ in ast.walk(ast.parse(source))) for source in sources),
        sum("wrap64(" in line for line in lines),
        sum("'type_mismatch'" in line for line in lines),
    )


def _fixed_cost_us(run) -> float:
    """The memo run's cost per mutant outside its tests: each mutant of
    the pool runs its first covering test as a test run that does nothing."""
    tests = {fn: run.profile.covering_passing_tests(fn)[:1] for fn in run.program.functions}
    mutants = [m for m in run.pool.mutants if tests[m.fn]]
    real = runner.run_test
    runner.run_test = lambda *args, **kwargs: (interp.TestOutcome(args[1], PASS, 0, 0), None)
    try:
        def all_mutants():
            for m in mutants:
                runner._run_single_mutant(
                    run.program, m, tests[m.fn], run.db.tables, frozenset(), {}, run.profile, run.runtime
                )

        return _best_ms(all_mutants) * 1000 / len(mutants)
    finally:
        runner.run_test = real


if __name__ == "__main__":
    from test_prefix import _workload_run

    print(
        "workload:seed      clean ms  schema ms  clean nodes  schema nodes  wraps  type checks"
        "  fixed us/mutant  base steps/s  memo steps/s"
    )
    for workload in workloads.WORKLOADS:
        for seed in (0, 5):
            run = _workload_run(workload, seed)
            program = run.program
            tests = set(program.tests)
            mutated = {m.fn for m in run.pool.mutants if run.profile.covering_passing_tests(m.fn)}

            def compile_clean():
                return [(compile_test if n in tests else compile_function)(f) for n, f in program.functions.items()]

            def compile_schemas():
                return [mutant_schema.__wrapped__(program.functions[fn]) for fn in mutated]

            clean, schemas = _best_ms(compile_clean), _best_ms(compile_schemas)
            (nodes, wraps, checks), schema_nodes = _generated(compile_clean), _generated(compile_schemas)[0]
            rates = []
            for memo in (False, True):
                cfg = RunConfig(memo=memo)

                def analysis():
                    db = run.db if memo else None
                    return run_mutation_analysis(
                        program, run.pool, run.profile, run.bundle.closure, db=db, cfg=cfg, runtime=run.runtime
                    )

                report = min((analysis() for _ in range(3)), key=lambda r: r.wall_ns)
                # The steps the run executed: those it resumed were not.
                executed = report.totals["steps"] - report.totals["resumed_steps"]
                rates.append(executed / report.wall_ns * 1e9)
            print(
                f"{workload + ':' + str(seed):18} {clean:8.1f} {schemas:10.1f} {nodes:12,} {schema_nodes:13,}"
                f" {wraps:6,} {checks:12,} {_fixed_cost_us(run):16.1f}"
                f" {rates[0]:13,.0f} {rates[1]:13,.0f}"
            )
