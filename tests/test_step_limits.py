"""The step limit cuts every execution at the same charge point.

Each test of the small corpus programs, `edges.mini` and `limits.mini`
runs once under every step limit from 1 to its full step count + 1, under
a hook that logs every call entry and exit with the step count.  Each run
contributes its verdict (kind, node, error), its step count, its printed
output, its final globals and its hook events to a per-program digest.
Each also runs again with no hooks, where the compiled code takes another
path through a call, and must give the same verdict, steps, output and
globals.
A limit of L ends the run at the L-th charged step, so any change in
where or in what order steps are charged, relative to calls, builtins,
errors and stores, shows up here.  `limits.mini` puts a call that
returns and one that raises beside literal and local-name operands in
every operand position, and in argument lists and array literals of
every length the compiler builds differently.

Each test of the small corpus programs also runs under every step limit
with look-ups in its program's tables, recorded at `1steps` and 100%,
so that a cache hit lands at every step of every run: its bypassed
call's step may be the one that reaches the limit.  Each run contributes
its verdict, its step count, its output, its final globals and its
per-function hit, miss and gate counts to a per-program digest.

To re-record against another checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_step_limits.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from memomut import corpus_path
from memomut.lang.interp import Hooks, Runtime, run_test
from memomut.lang.parser import parse
from memomut.lang.values import literal_str
from memomut.memo.builder import LookupHooks
from memomut.project import load_project

from conftest import cached_pipeline
from test_equivalence import EDGES, _EventLog

LIMITS = Path(__file__).with_name("limits.mini")

# The corpus programs small enough to sweep every limit of every test.
SMALL_CORPUS = ("globals", "indirect", "matrix", "nondet", "printcase", "randarg", "sample", "strings")

# name -> (runs, sha256 of the runs); recorded with the evaluator that
# charged one step per closure, before leaf operands were fused.  `limits`
# was recorded again when its argument-list tests were added, with the
# evaluator that built every non-leaf argument list by a comprehension,
# and when its store tests with one leaf operand were added, with the
# evaluator that compiled such a store as if neither operand were a leaf,
# and when its tests of one-operand nodes with a leaf operand were added,
# with the evaluator that gave such an operand a closure of its own, and
# when its test of `len` in a test's statements was added, with the
# compiler that called such a `len` through `call_builtin`, and when its
# test of mixed scalar equality, slots and a loop in a test's statements
# was added, with the compiler that kept a test's slots in a list and its
# count in the state.
EXPECTED = {
    'globals': (107, '171d754055946e4cc334becc4d5bd0d48313953fecc5d49a446cb0711d387cf2'),
    'indirect': (473, 'a8d6d3cb46804025dc90e6d1fcd02059db1617e0000e76b01478c01fb1915b95'),
    'matrix': (2426, 'ff506c4a17ca19a126f2c834c6f4fc9763c07bd465883efeda7ae3466ca5b54d'),
    'nondet': (73, '828584c4b159b0286a0e7a66013b0fbd4132555d3f3ae407dd722442e6f1ac82'),
    'printcase': (415, 'b29d1614cd79a0d848a5d6e2ebcce626a142771863c8563ad7c5ef8ce6213bb3'),
    'randarg': (886, '2eacdd9177df507d818c0cf07e78fba1431c5ee550af84353194a60763c96593'),
    'sample': (263, '41c73882b0fa9ea3c14a892de8932bd09de011868d2db8e1f740e105e0a735fb'),
    'strings': (393, 'd139b561060e1a82a17808cb2fdc26272a7ffe81969bf80dcffb6e20a91de2f5'),
    'edges': (3852, '3ee7b867889574340dae64fb7fdb170420d96a5de7c4de0379fa5418debfe45f'),
    'limits': (2295, '4dfb494cba74c5db2e1248892c49ae5fea11ba6bcbaf98d3618aedc178b8ffa9'),
}


# name -> (runs, hits, sha256 of the runs) with look-ups; recorded with
# the interpreter whose `ExecState.invoke` charged a hit's step.
EXPECTED_LOOKUPS = {
    'globals': (39, 69, '22dbf2d299a57bf035a3550ab448ade3feb195402630dacb0770eade6a11106d'),
    'indirect': (54, 63, 'acc54a1c9e0fa7d0d9f305aceaecbd761535094a00cfcd344b31a3203958b658'),
    'matrix': (83, 62, '71faf6dbb2e4dd9fa6753e5c99bbb7fe611fbce0a9e5e063f1740afbbf782889'),
    'nondet': (53, 6, '9aed376c74d1bc3d143860eb77fb4fdc3b8deb6af4604e54ef93ddb972841c0b'),
    'printcase': (407, 6, 'bacd61ede7e7f234108c1d52810c58774b526511b3cfb6ee5e6a42b12a65a422'),
    'randarg': (106, 387, '432a8d0c675dfa98a44b209601a99b1326d69cd5fb40bba8738e9bc1d5036baf'),
    'sample': (29, 31, 'bfd68ff2c2ad5cbebfad1e4b691b65114f41b829025f93bbb2b9037368fc484d'),
    'strings': (48, 40, 'f5233c1b738ace401a7fe0d61662bdf437f5a39344a79a4c9055cbc070d9ed35'),
}


def _row(test, limit, outcome, state, *extra) -> bytes:
    v = outcome.verdict
    final = sorted((g, literal_str(val)) for g, val in state.globals.items())
    return repr((test, limit, v.kind, v.node_id, v.error, outcome.steps, state.output, final, *extra)).encode()


def sweep(program) -> tuple[int, str]:
    """(runs, digest) over every test of one program at every step limit."""
    runtime = Runtime(seed=0, fake_time=True)
    digest = hashlib.sha256()
    runs = 0

    def run(test, limit, hooks=None):
        return run_test(
            program, test, hooks,
            step_limit=limit,
            rng=runtime.rng_for(f"limits:{test}"),
            clock=runtime.clock_for(f"limits:{test}"),
        )

    for test in program.tests:
        full, _ = run(test, 10_000_000)
        for limit in range(1, full.steps + 2):
            log = _EventLog()
            outcome, state = run(test, limit, log)
            row = _row(test, limit, outcome, state)
            # Without hooks a direct call runs its body where it is written.
            assert _row(test, limit, *run(test, limit)) == row, (test, limit)
            digest.update(_row(test, limit, outcome, state, log.events))
            runs += 1
    return runs, digest.hexdigest()


def lookup_sweep(name: str) -> tuple[int, int, str]:
    """(runs, hits, digest) over every test of corpus program `name` at
    every step limit, looking up calls in its tables."""
    pipe = cached_pipeline(name, tau=1, tau_unit="steps", limit_value=100.0)
    runtime = Runtime(seed=0, fake_time=True)
    digest = hashlib.sha256()
    runs = hits = 0

    def run(test, limit):
        hooks = LookupHooks(pipe.db.tables)
        outcome, state = run_test(
            pipe.program, test, hooks,
            step_limit=limit,
            rng=runtime.rng_for(test),
            clock=runtime.clock_for(test),
        )
        return outcome, state, hooks

    for test in pipe.program.tests:
        full, _, _ = run(test, 10_000_000)
        for limit in range(1, full.steps + 2):
            outcome, state, hooks = run(test, limit)
            counts = sorted((fn, sorted(c.items())) for fn, c in hooks.per_method.items())
            digest.update(_row(test, limit, outcome, state, counts))
            runs += 1
            hits += hooks.count_totals()["hits"]
    return runs, hits, digest.hexdigest()


def _programs() -> dict[str, Path]:
    return {**{name: corpus_path(name) for name in SMALL_CORPUS}, "edges": EDGES, "limits": LIMITS}


def test_every_step_limit_cuts_at_the_same_point():
    got = {name: sweep(load_project(path)) for name, path in _programs().items()}
    assert got == EXPECTED


def test_every_step_limit_cuts_a_hit_at_the_same_point():
    got = {name: lookup_sweep(name) for name in SMALL_CORPUS}
    assert got == EXPECTED_LOOKUPS


def test_a_push_the_limit_cuts_is_not_made():
    """`push` is a store: a run cut at its step leaves the array as it
    was, from a function's body and from a test's statement, with hooks
    and without.  The count is 4 at the store to `g`, and 12 and 16 at
    the pushes: each is made only under a higher limit."""
    program = parse("global g = 0; fn add(v) { push(g, v); } fn test_a() { g = []; add(1); push(g, 2); }")
    want = [("step_limit", k, "0" if k <= 4 else "[]" if k <= 12 else "[1]") for k in range(1, 17)]
    want.append(("pass", 16, "[1, 2]"))
    for hooks in (None, Hooks()):
        runs = (run_test(program, "test_a", hooks, step_limit=k) for k in range(1, 18))
        got = [(outcome.verdict.kind, outcome.steps, literal_str(state.globals["g"])) for outcome, state in runs]
        assert got == want, hooks


if __name__ == "__main__":
    print("EXPECTED")
    for name, path in _programs().items():
        print(f"    {name!r}: {sweep(load_project(path))!r},")
    print("EXPECTED_LOOKUPS")
    for name in SMALL_CORPUS:
        print(f"    {name!r}: {lookup_sweep(name)!r},")
