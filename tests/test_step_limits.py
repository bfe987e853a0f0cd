"""The step limit cuts every execution at the same charge point.

Each test of the small corpus programs, `edges.mini` and `limits.mini`
runs once under every step limit from 1 to its full step count + 1, under
a hook that logs every call entry and exit with the step count.  Each run
contributes its verdict (kind, node, error), its step count, its printed
output, its final globals and its hook events to a per-program digest.
A limit of L ends the run at the L-th charged step, so any change in
where or in what order steps are charged, relative to calls, builtins,
errors and stores, shows up here.  `limits.mini` puts a call that
returns and one that raises beside literal and local-name operands in
every operand position, and in argument lists and array literals of
every length the compiler builds differently.

To re-record against another checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_step_limits.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from memomut import corpus_path
from memomut.lang.interp import Runtime, run_test
from memomut.lang.values import literal_str
from memomut.project import load_project

from test_equivalence import EDGES, _EventLog

LIMITS = Path(__file__).with_name("limits.mini")

# The corpus programs small enough to sweep every limit of every test.
SMALL_CORPUS = ("globals", "indirect", "matrix", "nondet", "printcase", "randarg", "sample", "strings")

# name -> (runs, sha256 of the runs); recorded with the evaluator that
# charged one step per closure, before leaf operands were fused.  `limits`
# was recorded again when its argument-list tests were added, with the
# evaluator that built every non-leaf argument list by a comprehension.
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
    'limits': (1752, '07d2a09d2c1471899540d4c40963ea35060b6880e282c3d36eef66816549a948'),
}


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
            v = outcome.verdict
            final = sorted((g, literal_str(val)) for g, val in state.globals.items())
            row = (test, limit, v.kind, v.node_id, v.error, outcome.steps, state.output, final, log.events)
            digest.update(repr(row).encode())
            runs += 1
    return runs, digest.hexdigest()


def _programs() -> dict[str, Path]:
    return {**{name: corpus_path(name) for name in SMALL_CORPUS}, "edges": EDGES, "limits": LIMITS}


def test_every_step_limit_cuts_at_the_same_point():
    got = {name: sweep(load_project(path)) for name, path in _programs().items()}
    assert got == EXPECTED


if __name__ == "__main__":
    for name, path in _programs().items():
        print(f"    {name!r}: {sweep(load_project(path))!r},")
