"""Step-exact equivalence of the evaluator with recorded reference runs.

Every corpus program, and `edges.mini` beside this file, runs every test
against the unmutated program and against every mutant, with no hooks.  Each run contributes its verdict
(kind, node, error), its step count, its printed output and its final
globals to a per-program digest; a hook that logs every call entry and
exit with the step count adds the unmutated runs' event order.  The
expected values were recorded with the reference tree-walking evaluator
that the closure compiler replaced, so any change in step charging, error
order or hook order shows up here.

To re-record against another checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_equivalence.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from memomut import corpus_names, corpus_path
from memomut.lang.interp import Hooks, Runtime, run_test
from memomut.lang.values import literal_str
from memomut.mutation import apply_mutant, generate_mutants
from memomut.project import load_project

EDGES = Path(__file__).with_name("edges.mini")

# name -> (total steps, sha256 of the runs); recorded with the tree walker.
EXPECTED = {
    'bench_expensive': (5081872, '1fb33476f8ba0db36e124bf7019338832ef2145a965cfe03bb801c945e15bc8a'),
    'fib': (1014370, '668fa4a909a77173b07c118cacbcc826fa03738086dbea1cd8e4c7a971e4163c'),
    'globals': (1276, 'd58005f3f772d697871f4764780469c6b7df28a0c260ab37a9ba89bd4d8f7ab2'),
    'indirect': (15286, '1acf7663c7aedbeaccbbe6fbca1dfd4e84ed217e8813591c09f84da3cbd9cc4e'),
    'matrix': (225764, 'c9fe8da6b7bce3e430c224633d0f3efe92e7089e235fdf4633dcb687b283bbab'),
    'nondet': (704, '623b2b28373c64fcb7d0abaa58d8c0ed0c81fd9d1f71326ce16056e15f7aa81f'),
    'printcase': (12270, 'cd7ddad469105ee32e78f438beb624301b85d0adab3bb1be353e7b6c7f642b61'),
    'randarg': (32234, '4ce0ce654924da6ccc59a3d8573874402b4120cba89401e040fd06f08efb5357'),
    'sample': (9092, '70a0c28461dda23db6419f819b121d7fa5b6cd0211abc724c9f97069412c1c49'),
    'strings': (19416, '5dc28b178641f371cbf9f7c51189bc1091b668be79df8240b5a07eb8f0b5809b'),
    'edges': (254067, '876423bf4c19161ded151f4dd5cea2595d22f9ce37de7369418258a94546f229'),
}


class _EventLog(Hooks):
    def __init__(self):
        self.events = []

    def on_call_enter(self, fn, args, state):
        self.events.append(("enter", fn, len(args), state.steps))
        return None

    def on_call_exit(self, fn, ret, state):
        self.events.append(("exit", fn, literal_str(ret), state.steps))


def sweep(program) -> tuple[int, str]:
    """(total steps, digest) over every mutant x test of one program."""
    runtime = Runtime(seed=0, fake_time=True)
    digest = hashlib.sha256()
    total = 0
    limits = {}
    for test in program.tests:
        log = _EventLog()
        outcome, _ = run_test(
            program, test, log,
            rng=runtime.rng_for(f"sweep:{test}"), clock=runtime.clock_for(f"sweep:{test}"),
        )
        limits[test] = outcome.steps * 10 + 1000
        digest.update(repr((test, log.events)).encode())
    pool = generate_mutants(program)
    for mutant in [None] + pool.mutants:
        mid = -1 if mutant is None else mutant.id
        mutated = program if mutant is None else apply_mutant(program, mutant)
        for test in program.tests:
            outcome, state = run_test(
                mutated, test,
                step_limit=limits[test],
                rng=runtime.rng_for(f"sweep:{mid}:{test}"),
                clock=runtime.clock_for(f"sweep:{mid}:{test}"),
            )
            v = outcome.verdict
            final = sorted((g, literal_str(val)) for g, val in state.globals.items())
            row = (mid, test, v.kind, v.node_id, v.error, outcome.steps, state.output, final)
            digest.update(repr(row).encode())
            total += outcome.steps
    return total, digest.hexdigest()


def _programs() -> dict[str, Path]:
    return {**{name: corpus_path(name) for name in corpus_names()}, "edges": EDGES}


def test_every_mutant_run_matches_the_reference_evaluator():
    got = {name: sweep(load_project(path)) for name, path in _programs().items()}
    assert got == EXPECTED


if __name__ == "__main__":
    for name, path in _programs().items():
        print(f"    {name!r}: {sweep(load_project(path))!r},")
