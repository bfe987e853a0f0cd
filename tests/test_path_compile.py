"""A mutant's function compiled along its mutated path runs as one
compiled from scratch, and reuses every closure off that path.

The runner compiles a mutant's function with the program's code of that
function as its parent (`compile_function(fn, parent)`): every node that
`apply_mutant` did not copy keeps the parent's closure.  For every mutant
of the corpus programs, `edges.mini`, `limits.mini` and the benchmark
workloads at seeds 0 and 5, each test that covers the mutated function
runs once with the path-compiled code and once with code compiled from
scratch; the verdict, error node, steps, output and final globals must
agree.  Every statement the mutant shares with the program must keep the
parent's closure object, so the saving cannot silently regress.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from memomut import corpus_names, corpus_path
from memomut.lang.ast import Stmt, children, walk
from memomut.lang.compiler import compile_function
from memomut.lang.interp import Runtime, code_map, run_test
from memomut.lang.parser import parse
from memomut.lang.values import literal_str
from memomut.mutation import apply_mutant, generate_mutants
from memomut.profiler import profile_suite
from memomut.project import load_project

from test_equivalence import EDGES
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


def _embedded(f) -> list:
    """The closures and other values closure `f` holds, tuples unpacked."""
    out = []
    for cell in f.__closure__ or ():
        value = cell.cell_contents
        out.extend(value if type(value) is tuple else (value,))
    return out


def _assert_reuses_off_path(parent, code, fn, mutant_fn) -> None:
    """Every statement of `mutant_fn` that is `fn`'s own keeps `parent`'s
    closure, and the copied node above it holds that very closure."""
    shared = {id(n) for n in walk(fn.body)}
    for node in walk(mutant_fn.body):
        if id(node) in shared:
            continue  # the parent's own node: its whole subtree is reused
        for child in children(node):
            if isinstance(child, Stmt) and id(child) in shared:
                assert id(child) not in code.closures
                held = _embedded(code.closures[id(node)])
                assert any(f is parent.closures[id(child)] for f in held)


def _run(program, test, budget, label, runtime, code):
    outcome, state = run_test(
        program,
        test,
        step_limit=budget,
        rng=runtime.rng_for(label),
        clock=runtime.clock_for(label),
        code=code,
    )
    v = outcome.verdict
    final = sorted((g, literal_str(value)) for g, value in state.globals.items())
    return v.kind, v.node_id, v.error, outcome.steps, state.output, final


@pytest.mark.parametrize("load", PROGRAMS)
def test_path_compiled_mutants_run_as_compiled_from_scratch(load):
    program = load()
    runtime = Runtime(seed=0, fake_time=True)
    profile = profile_suite(program, runtime=runtime)
    base = code_map(program)
    runs = 0
    for m in generate_mutants(program).mutants:
        mutated = apply_mutant(program, m)
        fn, mutant_fn = program.functions[m.fn], mutated.functions[m.fn]
        path_code = compile_function(mutant_fn, base[m.fn])
        _assert_reuses_off_path(base[m.fn], path_code, fn, mutant_fn)
        path = {**base, m.fn: path_code}
        scratch = {**base, m.fn: compile_function(mutant_fn)}
        for test, record in profile.tests.items():
            if m.fn not in record.covered:
                continue
            label, budget = f"path:{m.id}:{test}", profile.step_budget(test)
            got = _run(mutated, test, budget, label, runtime, path)
            assert got == _run(mutated, test, budget, label, runtime, scratch), (m, test)
            runs += 1
    assert runs
