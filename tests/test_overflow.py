"""Every reader of an arithmetic value sees it wrapped to 64 bits.

The compiler wraps a tree of `+`, `-`, `*` and unary `-` once, at its
root, as these are ring operations mod 2**64.  Hypothesis draws trees of
those and of `/` and `%`, whose operands are wrapped, over the edges of
the 64-bit range and two int parameters, and hands each tree to every
kind of reader: a `let`, a local, global and array store, `print`, a call
argument, a return, `push`, an array literal, the comparisons, `==` and
`!=`, `/` and `%` on either side, an index, a condition, an assert and a
loop.  Each reader runs as a test of its own, and its verdict and output
must equal those of Python that wraps after every operation.  Every
mutant of a function that returns such a tree, run from its function's
schema, must run as the mutant's function compiled from scratch: a swap
to `/` or `%` takes its operands wrapped, and so does every other
alternative's value.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from memomut.lang.compiler import compile_function
from memomut.lang.interp import code_map, run_test
from memomut.lang.parser import parse
from memomut.lang.values import INT_MAX, INT_MIN, format_value, wrap64
from memomut.mutation import apply_mutant, generate_mutants

from oracles import mutated_program

EDGES = (INT_MAX, INT_MIN + 1, 3037000500, 1 << 62)  # 3037000500**2 passes INT_MAX


class Fails(Exception):
    """A runtime error of kind `args[0]`."""


def _div(a: int, b: int) -> int:
    if b == 0:
        raise Fails("div_by_zero")
    return abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)  # toward zero, not wrapped


def value(tree, env: dict) -> int:
    """`tree`'s value, wrapped after every operation."""
    if type(tree) is str:
        return env[tree]
    if type(tree) is int:
        return tree
    if tree[0] == "neg":
        return wrap64(-value(tree[1], env))
    op, a, b = tree[0], value(tree[1], env), value(tree[2], env)
    if op == "/":
        return wrap64(_div(a, b))
    if op == "%":
        return a - b * _div(a, b)
    return wrap64(a + b if op == "+" else a - b if op == "-" else a * b)


def literal(v: int) -> str:
    if v == INT_MIN:
        return f"(-{INT_MAX} - 1)"
    return str(v) if v >= 0 else f"(-{-v})"


def source(tree) -> str:
    if type(tree) is not tuple:
        return tree if type(tree) is str else literal(tree)
    if tree[0] == "neg":
        return f"(-{source(tree[1])})"
    return f"({source(tree[1])} {tree[0]} {source(tree[2])})"


def _index(items: list, i: int) -> str:
    if not 0 <= i < len(items):
        raise Fails("index_oob")
    return str(items[i])


def _type_mismatch(v: int) -> str:
    raise Fails("type_mismatch")


# reader -> (the body of `fn r(a, b, w)`, which reads the tree `E` whose
# value `w` is, and the printed value it returns, from that value)
READERS = {
    "let": ("let x = E; return x;", str),
    "local store": ("let x = 0; x = E; return x;", str),
    "global store": ("g = E; return g;", str),
    "array store": ("let x = [0]; x[0] = E; return x;", lambda v: f"[{v}]"),
    "print": ("print(E); return 0;", lambda v: f"{v}\n0"),
    "call argument": ("return id(E);", str),
    "return": ("return E;", str),
    "push": ("let x = []; push(x, E); return x;", lambda v: f"[{v}]"),
    "array literal": ("return [E, 0];", lambda v: f"[{v}, 0]"),
    "comparisons": (
        "return [E < w, E <= w, E > w, E >= w, E < 0];", lambda v: f"[false, true, false, true, {format_value(v < 0)}]"
    ),
    "equality": ("return [E == w, E != w, w == E, E == 0];", lambda v: f"[true, false, true, {format_value(v == 0)}]"),
    "/ left": ("return E / 7;", lambda v: str(wrap64(_div(v, 7)))),
    "/ -1": ("return E / -1;", lambda v: str(wrap64(-v))),
    "/ right": ("return 1000 / E;", lambda v: str(_div(1000, v))),
    "% left": ("return E % 7;", lambda v: str(v - 7 * _div(v, 7))),
    "% right": ("return 1000 % E;", lambda v: str(1000 - v * _div(1000, v))),
    "index": ("return [10, 11, 12][E - w + 1];", lambda v: "11"),
    "index by the value": ("return [10, 11][E];", lambda v: _index([10, 11], v)),
    "negation": ("return -(E - w) + 5;", lambda v: "5"),
    "condition": ("if (E) { return 1; } return 0;", _type_mismatch),
    "assert": ("assert(E - w == 0); assert(E); return 0;", _type_mismatch),
    "loop": ("let x = E; let i = 0; while (i < 2) { x = x * E + i; i = i + 1; } return x;",
             lambda v: str(wrap64(wrap64(v * v) * v + 1))),
}

operands = st.sampled_from(EDGES) | st.sampled_from(("a", "b"))
trees = st.recursive(
    operands,
    lambda kids: st.tuples(st.sampled_from(("+", "-", "*", "/", "%")), kids, kids) | st.tuples(st.just("neg"), kids),
    max_leaves=10,
)
ints = st.sampled_from(EDGES + (INT_MIN, 0, -1)) | st.integers(INT_MIN, INT_MAX)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees, ints, ints)
def test_every_reader_sees_the_wrapped_value(tree, a, b):
    try:
        v, error = value(tree, {"a": a, "b": b}), None
    except Fails as e:
        v, error = 0, e.args[0]
    readers = list(READERS.items())
    program = parse("global g = 0;\nfn id(x) { return x; }\n" + "".join(
        f"fn r{k}(a, b, w) {{ {body.replace('E', source(tree))} }}\n"
        f"fn test_{k}() {{ print(r{k}({literal(a)}, {literal(b)}, {literal(v)})); }}\n"
        for k, (_, (body, _)) in enumerate(readers)
    ))
    for k, (name, (_, expected)) in enumerate(readers):
        outcome, state = run_test(program, f"test_{k}")
        got = outcome.verdict.kind, outcome.verdict.error, state.output
        if error is None:
            try:
                want = "pass", None, expected(v).split("\n")
            except Fails as e:
                want = "runtime_error", e.args[0], []
        else:
            want = "runtime_error", error, []
        assert got == want, (name, source(tree), a, b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees, ints, ints)
def test_every_mutant_of_a_tree_runs_as_compiled_from_scratch(tree, a, b):
    program = parse(f"fn r(a, b) {{ let x = {source(tree)}; return [x, x - 1]; }}\n"
                    f"fn test_r() {{ print(r({literal(a)}, {literal(b)})); }}")
    for m in generate_mutants(program).mutants:
        scratch = compile_function(mutated_program(program, m).functions[m.fn])
        runs = []
        for code in apply_mutant(program, m), {**code_map(program), m.fn: scratch}:
            outcome, state = run_test(program, "test_r", code=code)
            runs.append((outcome.verdict, outcome.steps, state.output))
        assert runs[0] == runs[1], (m, source(tree), a, b)
