"""The side-effect summary against the effects calls really have.

A cache hit replays only what the summary names: the globals in
`writes` and the argument positions in `mut_args`.  Each shape below is
a memoized loop `heavy` that ends in a store the summary once missed,
and a `peek(.., flag)` that reads the stored value only when `flag` is
true.  The unmutated test never observes the store, so provisional
memoization keeps `heavy`; `peek`'s negated condition does observe it,
and is killed in the base run.  A summary that misses the store lets
that mutant survive in the memo run.

The dynamic check snapshots the arguments and globals at every call's
entry and, at its exit, requires each change to be one the summary
names, as `test_call_graph_dynamically_sound` does for the call graph.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from memomut import corpus_names, corpus_path
from memomut.analysis import analyze_program
from memomut.cli import main
from memomut.lang.interp import Hooks, Runtime, run_test
from memomut.lang.parser import parse
from memomut.lang.values import deep_copy, deep_equal
from memomut.project import load_project

from test_bench_flags import workloads

HERE = Path(__file__).parent
INIT = "global G = 0;\nfn init() { G = [0, 0]; }\n"
BUMP = "fn bump(x) { x[0] = x[0] + 1; }\n"

# name -> (definitions, heavy's parameters, the store it ends in, the
#          test's setup, heavy's arguments, what peek reads when flagged,
#          heavy's expected writes, heavy's expected mut_args)
SHAPES = {
    "global_index_store": (INIT, "n", "G[0] = G[0] + 1;", "init();", "300", "G[0]", {"G"}, set()),
    "local_alias_of_global": (INIT, "n", "let a = G; a[0] = a[0] + 1;", "init();", "300", "G[0]", {"G"}, set()),
    "push_onto_global": (INIT, "n", "push(G, 1);", "init();", "300", "len(G) - 2", {"G"}, set()),
    "global_through_callee": (INIT + BUMP, "n", "bump(G);", "init();", "300", "G[0]", {"G"}, set()),
    "nested_alias": ("", "a, n", "let b = a[1]; b[0] = b[0] + 1;", "let a = [0, [0, 0]];", "a, 300", "a[1][0]",
                     set(), {0}),
    "assigned_alias": ("", "a, n", "let b = 0; b = a; b[0] = b[0] + 1;", "let a = [0, 0];", "a, 300", "a[0]",
                       set(), {0}),
    "sibling_lets": ("", "a, c, n",
                     "if (n > 0) { let b = a; b[0] = b[0] + 1; } else { let b = c; b[0] = b[0] + 1; }",
                     "let a = [0, 0];", "a, [0, 0], 300", "a[0]", set(), {0, 1}),
}


def shape_source(name: str) -> str:
    defs, params, store, setup, args, read, _, _ = SHAPES[name]
    peek = "a, " if params.startswith("a") else ""
    return f"""{defs}
fn heavy({params}) {{
    let i = 0;
    let s = 0;
    while (i < n) {{
        s = s + i;
        i = i + 1;
    }}
    {store}
    return s;
}}

fn peek({peek}flag) {{
    if (flag) {{
        return {read};
    }}
    return 0;
}}

fn test_heavy() {{
    {setup}
    assert(heavy({args}) == 44850);
    assert(peek({peek}false) == 0);
}}
"""


def _verdicts(report: dict) -> list[tuple]:
    return [(m["id"], m["status"], m["killing_test"], m["cause"]) for m in report["mutants"]]


@pytest.mark.parametrize("shape", SHAPES)
def test_store_roots_reach_the_summary_and_keep_verdicts(shape, tmp_path):
    *_, writes, mut_args = SHAPES[shape]
    source = shape_source(shape)
    effects = analyze_program(parse(source)).effects
    assert (effects.writes["heavy"], effects.mut_args["heavy"]) == (writes, mut_args)

    (tmp_path / "main.mini").write_text(source)
    art = tmp_path / "art"
    argv = ["pipeline", str(tmp_path), "--fake-time", "--tau", "1000steps", "--limit", "100%",
            "--artifact-dir", str(art)]
    assert main(argv) == 0
    base, memo = (json.loads((art / f"{name}.json").read_text()) for name in ("base", "memo"))
    assert memo["per_method"]["heavy"]["hits"] > 0  # heavy was memoized and answered from the table
    assert _verdicts(base) == _verdicts(memo)


def test_mutated_positions_follow_a_recursive_swap():
    # The position pass maps a callee's mutated positions through a call
    # to itself with its arguments swapped.
    src = "fn f(a, b) { if (a[0] > 0) { a[0] = 0; f(b, a); } }"
    assert analyze_program(parse(src)).effects.mut_args["f"] == {0, 1}


class _EffectWatch(Hooks):
    """Copies the arguments and globals at each call's entry; at the
    matching exit, collects every change the summary does not name: a
    changed array argument whose position is not in `mut_args`, or a
    changed global, not reachable from an argument, that is not in
    `writes`."""

    def __init__(self, effects):
        self.effects = effects
        self.open: list[tuple] = []
        self.unnamed: set[tuple[str, object]] = set()

    def on_call_enter(self, fn, args, state):
        reachable: set[int] = set()
        todo = [a for a in args if isinstance(a, list)]
        while todo:
            arr = todo.pop()
            if id(arr) not in reachable:
                reachable.add(id(arr))
                todo.extend(x for x in arr if isinstance(x, list))
        shared = {g for g, v in state.globals.items() if id(v) in reachable}
        before = {g: deep_copy(v) for g, v in state.globals.items() if g not in shared}
        self.open.append((args, deep_copy(args), before))
        return None

    def on_call_exit(self, fn, ret, state):
        args, args_before, globals_before = self.open.pop()
        for p, (now, was) in enumerate(zip(args, args_before)):
            if isinstance(was, list) and not deep_equal(now, was) and p not in self.effects.mut_args[fn]:
                self.unnamed.add((fn, p))
        for g, was in globals_before.items():
            if not deep_equal(state.globals[g], was) and g not in self.effects.writes[fn]:
                self.unnamed.add((fn, g))


def _unnamed_effects(program) -> set[tuple]:
    effects = analyze_program(program).effects
    runtime = Runtime(seed=0, fake_time=True)
    unnamed = set()
    for test in program.tests:
        watch = _EffectWatch(effects)
        run_test(program, test, watch, rng=runtime.rng_for(f"effects:{test}"),
                 clock=runtime.clock_for(f"effects:{test}"))
        unnamed |= {(test, *change) for change in watch.unnamed}
    return unnamed


def _sound_programs() -> dict[str, object]:
    programs = {name: load_project(corpus_path(name)) for name in corpus_names()}
    for name in ("edges", "limits"):
        programs[name] = load_project(HERE / f"{name}.mini")
    for workload in workloads.WORKLOADS:
        for seed in (3, 5, 13):
            programs[f"{workload}:{seed}"] = parse(workloads.generate(workload, seed).source)
    for shape in SHAPES:
        programs[shape] = parse(shape_source(shape))
    return programs


def test_side_effects_dynamically_sound():
    unnamed = {name: u for name, p in _sound_programs().items() if (u := _unnamed_effects(p))}
    assert unnamed == {}
