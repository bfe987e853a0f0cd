"""Parser, resolver, node numbering, and pretty-printer round-trips."""

import pytest
from hypothesis import given, strategies as st

from memomut import corpus_names, corpus_path
from memomut.lang.ast import Call, Let, Name, print_program, walk
from memomut.lang.parser import MiniSyntaxError, ResolutionError, parse, tokenize
from memomut.project import load_project


def test_minimal_program():
    p = parse("fn test_a(){ assert(1+1==2); }")
    assert len(p.functions) == 1
    assert p.tests == ["test_a"]
    assert p.globals == []


def test_undeclared_callee_rejected():
    with pytest.raises(ResolutionError) as exc:
        parse("fn f(){ g(); }")
    assert exc.value.name == "g"


def test_undeclared_name_rejected():
    with pytest.raises(ResolutionError):
        parse("fn f(){ return x; }")


def test_duplicate_let_rejected():
    with pytest.raises(ResolutionError):
        parse("fn f(){ let a = 1; let a = 2; }")


def test_shadowing_across_scopes_allowed():
    parse("fn f(){ let a = 1; if (true) { let a = 2; } }")


def test_resolver_gives_each_local_its_declarations_slot():
    src = """
global g = 0;
fn f(a, b) {
    let x = a;
    if (true) {
        let x = b;
        let y = x;
        while (false) {
            let a = y;
            x = a;
        }
        a = x;
    }
    return x + a + g;
}
"""
    fn = parse(src).functions["f"]
    lets = [(n.name, n.slot) for n in walk(fn.body) if type(n) is Let]
    names = [(n.ident, n.slot) for n in walk(fn.body) if type(n) is Name and not n.is_global]
    # Parameters take slots 0 and 1; each let, shadowing or not, takes a
    # new slot, and after a block the outer declaration's slot is used again.
    assert lets == [("x", 2), ("x", 3), ("y", 4), ("a", 5)]
    assert names == [
        ("a", 0), ("b", 1), ("x", 3), ("y", 4), ("x", 3), ("a", 5),
        ("a", 0), ("x", 3), ("x", 2), ("a", 0),
    ]
    assert fn.nslots == len(fn.params) + len(lets)


def test_duplicate_function_rejected():
    with pytest.raises(MiniSyntaxError):
        parse("fn f(){} fn f(){}")


def test_test_function_with_params_rejected():
    with pytest.raises(MiniSyntaxError):
        parse("fn test_x(n){ }")


def test_global_initializer_must_be_literal():
    with pytest.raises(MiniSyntaxError):
        parse("global g = 1 + 2; fn f(){}")
    p = parse('global a = -3; global b = "hi"; global c = true; fn f(){}')
    assert p.globals == [("a", -3), ("b", "hi"), ("c", True)]


def test_syntax_error_carries_position():
    with pytest.raises(MiniSyntaxError) as exc:
        parse("fn f(){\n  let = 3;\n}")
    assert exc.value.line == 2


def test_comments_and_escapes():
    p = parse('fn f(){ // a comment\n return "a\\n\\"b"; }')
    assert len(p.functions) == 1


def test_tokenize_rejects_stray_character():
    with pytest.raises(MiniSyntaxError):
        tokenize("fn f(){ let a = 1 $ 2; }")


def test_node_ids_dense_preorder_from_zero():
    p = parse("fn f(x){ if (x < 2) { return 1; } return 0; }")
    fn = p.functions["f"]
    ids = sorted(n.node_id for n in walk(fn.body))
    assert ids == list(range(len(ids)))
    assert fn.body.node_id == 0
    assert fn.max_node_id == ids[-1]


def test_parse_is_deterministic():
    src = "fn f(a){ let b = a; while (b > 0) { b = b - 1; } return b; }"
    p1, p2 = parse(src), parse(src)
    ids1 = [n.node_id for n in walk(p1.functions["f"].body)]
    ids2 = [n.node_id for n in walk(p2.functions["f"].body)]
    assert ids1 == ids2


def test_direct_call_shadowed_by_local_is_indirect():
    p = parse("fn g(){} fn f(h){ h(); }")
    call = next(n for n in walk(p.functions["f"].body) if isinstance(n, Call))
    assert call.callee is not None  # stays an indirect call through the param


def test_printer_round_trip_all_corpus():
    for name in corpus_names():
        p = load_project(corpus_path(name))
        text = print_program(p)
        p2 = parse(text)
        assert print_program(p2) == text
        for f in p.functions:
            ids1 = [n.node_id for n in walk(p.functions[f].body)]
            ids2 = [n.node_id for n in walk(p2.functions[f].body)]
            assert ids1 == ids2, f"node ids unstable in {name}:{f}"


def test_printer_minimal_parens_preserved():
    src = "fn f(a, b){ return (a + b) / 2 * -(a - 1); }"
    p = parse(src)
    assert print_program(parse(print_program(p))) == print_program(p)


def test_sample_corpus_shape():
    path = corpus_path("sample") / "sample.mini"
    assert len(path.read_text().splitlines()) == 30
    p = load_project(corpus_path("sample"))
    assert len(p.functions) == 5
    assert sorted(p.tests) == ["test_sum", "test_total"]
    assert p.globals == [("total", 0)]


@given(st.integers(min_value=0, max_value=2**62))
def test_int_literals_round_trip(n):
    p = parse(f"fn f(){{ return {n}; }}")
    assert f"return {n};" in print_program(p)


def test_globals_marked_in_resolution():
    p = parse("global g = 1; fn f(){ let a = g; g = a; return g; }")
    names = [n for n in walk(p.functions["f"].body) if isinstance(n, Name)]
    assert all(n.is_global == (n.ident == "g") for n in names)
