"""What the compiled code knows of its values, and where it wraps them.

The writer keeps a local's static type at a loop head where the loop's
back edge gives it the type it has on entry, and starts each top-level
statement of a test with the types its locals had where the statement
before fell off; it drops a type check that a known type makes, and
wraps a tree of `+`, `-`, `*` and unary `-` once, at its root (see
`compiler`).  The programs here change a local's type on a back edge of
a loop and of a nested loop, rebind a test's slot to another type in a
later statement, and multiply 300 factors of INT_MAX.  Each runs at every
step limit with hooks and with none (`test_step_limits.sweep`), against
digests recorded with the compiler that knew no type at a loop head or
at the start of a test's statement and wrapped after every operation; a
test resumed from each prefix `keep` hands out must run as the test run
from its start.

To re-record against another checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_type_facts.py
"""

from __future__ import annotations

from itertools import takewhile

from memomut.lang import compiler
from memomut.lang.interp import Hooks, run_test
from memomut.lang.parser import parse
from memomut.lang.values import INT_MAX, literal_str, wrap64

from test_step_limits import sweep

TYPE_FACTS = """
global seen = 0;

fn id(x) { return x; }

fn grow(n) {
    let x = 0;
    let i = 0;
    while (i < n) {
        x = x + 1;
        i = i + 1;
        if (i == 1) { x = [x]; }
    }
    return x;
}

fn flip(n) {
    let x = 1;
    let i = 0;
    while (i < n) {
        let y = x * 2 + 1;
        seen = y;
        if (i == 2) { x = true; }
        i = i + 1;
    }
    return x;
}

fn nest(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        let j = 0;
        while (j < i) {
            s = s + j * i;
            j = j + 1;
        }
        if (i == 2) { s = "s"; }
        i = i + 1;
    }
    return s;
}

fn nest_inner(n) {
    let t = 0;
    let i = 0;
    while (i < n) {
        t = t - 1;
        let j = 0;
        while (j < 2) {
            if (i == 1) { t = j == 0; }
            j = j + 1;
        }
        i = i + 1;
    }
    return t;
}

fn test_grow_once() { assert(grow(1)[0] == 1); }
fn test_grow_twice() { grow(2); }
fn test_flip() { print(flip(3)); flip(4); }
fn test_nest() { print(nest(2)); nest(4); }
fn test_nest_inner() { print(nest_inner(1)); nest_inner(3); }

fn test_rebind() {
    let x = 1;
    let y = x + 1;
    print(id(y));
    x = [x];
    print(id(x));
    let z = x[0] + y;
    x = x[0] > 0;
    print(id(z));
    assert(x);
    x = x + 1;
}

fn test_rebind_in_a_branch() {
    let x = 1;
    let k = 0;
    while (k < 2) { x = x + k; k = k + 1; }
    if (id(x) == 2) { x = "two"; }
    print(id(k));
    let y = k * 2;
    print(y);
    print(x + 1);
}
"""

CHAIN = f"fn product(x) {{ return {' * '.join([str(INT_MAX)] * 300)}; }} fn test_product() {{ print(product(0)); }}"

# name -> (runs, sha256 of the runs); recorded with the compiler that knew
# no type at a loop head or at a test's statement and wrapped every `+`,
# `-` and `*`.
EXPECTED = {
    "type_facts": (771, "cf0327b9d62a45876b6e3e32b41c3e8b0b1babeba27f1a230cd80fcc82ad8b0a"),
    "chain": (607, "142bc8e7ab9de3ff380dac10c7281c596310c7b8a18738a32a1c389591fc0a1f"),
}


def _programs():
    return {"type_facts": parse(TYPE_FACTS), "chain": parse(CHAIN)}


def test_every_step_limit_runs_the_typed_code_as_before():
    assert {name: sweep(program) for name, program in _programs().items()} == EXPECTED


def test_a_long_product_is_wrap64_of_its_value():
    outcome, state = run_test(parse(CHAIN), "test_product")
    assert outcome.verdict.kind == "pass"
    assert state.output == [str(wrap64(INT_MAX**300))]


def test_a_resumed_test_runs_as_from_its_start():
    program = parse(TYPE_FACTS)

    def row(outcome, state):
        v = outcome.verdict
        return v.kind, v.node_id, v.error, outcome.steps, state.output, literal_str(state.globals["seen"])

    resumed = 0
    for test in program.tests:
        prefixes = []
        full, _ = run_test(program, test, keep=prefixes.append)
        for prefix in prefixes:
            for limit in range(prefix.steps + 1, full.steps + 2):
                for hooks in (None, Hooks()):
                    want = row(*run_test(program, test, hooks, step_limit=limit))
                    assert row(*run_test(program, test, hooks, step_limit=limit, start=prefix)) == want
                    resumed += 1
    assert resumed > 100


# -- the code written -------------------------------------------------------


def _source(text: str, fn: str) -> list[str]:
    """The lines of the Python source `fn` of program `text` compiles to."""
    lines, real = [], compiler._exec

    def spy(f, source, refs):
        lines.extend(source)
        return real(f, source, refs)

    compiler._exec = spy
    try:
        compiler.compile_function(parse(text).functions[fn])
    finally:
        compiler._exec = real
    return lines


def test_a_tree_of_ring_operations_is_wrapped_once():
    lines = _source("fn f(a, b) { return a * b + a * 3 - 1; }", "f")
    assert sum("wrap64(" in line for line in lines) == 1


def test_a_long_product_is_wrapped_where_it_would_pass_256_bits():
    # 64 bits a factor: a wrap after every fourth factor, and one at the root.
    lines = _source(CHAIN, "product")
    assert sum("wrap64(" in line for line in lines) == 100


def test_a_loop_keeps_a_type_its_body_keeps():
    # n is v0, acc v1 and i v2.
    lines = _source("fn f(n) { let acc = 0; let i = 0; while (i < n) { acc = acc + i; i = i + 1; } return acc; }", "f")
    head = next(k for k, line in enumerate(lines) if line.strip() == "while True:")
    indent = len(lines[head]) - len(lines[head].lstrip())
    body = list(takewhile(lambda line: len(line) - len(line.lstrip()) > indent, lines[head + 1:]))
    assert body and not any("type(v1)" in line or "type(v2)" in line for line in body)
    assert any("type(v0)" in line for line in body)  # n is a parameter: its type is not known


if __name__ == "__main__":
    for name, program in _programs().items():
        print(f"    {name!r}: {sweep(program)!r},")
