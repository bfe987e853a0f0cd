"""Mutant generation and application."""

import copy
from pathlib import Path

import pytest

from memomut.lang.ast import Program, children, print_program, walk
from memomut.lang.interp import run_function
from memomut.lang.parser import parse
from memomut.mutation import (
    Mutant,
    Operator,
    StaleMutant,
    _transform,
    apply_mutant,
    generate_mutants,
    pool_from_json,
    pool_to_json,
)

from oracles import enumerate_mutants


def keyset(pool):
    return {(m.fn, m.node_id, m.op.value, m.variant) for m in pool.mutants}


def test_pool_matches_oracle_on_corpus(corpus_pipelines):
    for name, pipe in corpus_pipelines.items():
        assert keyset(pipe.pool) == enumerate_mutants(pipe.program), name


def test_simple_function_has_exactly_two_mutants():
    pool = generate_mutants(parse("fn f(a, b){ return a + b; } fn test_a(){ f(1, 2); }"))
    assert {m.op for m in pool.mutants} == {Operator.AOR, Operator.RVM}
    assert len(pool.mutants) == 2


def test_empty_function_has_no_mutants():
    pool = generate_mutants(parse("fn f(){ } fn test_a(){ f(); }"))
    assert pool.mutants == []


def test_branchy_example_pinned_to_oracle():
    src = "fn f(x){ if (x < 2) { return 1; } return 0; } fn test_a(){ f(0); }"
    p = parse(src)
    pool = generate_mutants(p)
    oracle = enumerate_mutants(p)
    assert keyset(pool) == oracle
    # ROR boundary + negation, UOI_NEG, CRP on 2 and 1 (not the default
    # return 0), RVM on return 1, and no RVM on return 0.
    ops = sorted(m.op.value for m in pool.mutants)
    assert ops == ["CRP", "CRP", "CRP", "ROR", "ROR", "RVM", "UOI_NEG"]


def test_test_bodies_never_mutated(corpus_pipelines):
    for pipe in corpus_pipelines.values():
        assert not any(m.fn in pipe.program.tests for m in pipe.pool.mutants)


def test_pool_order_deterministic(sample_pipeline):
    pool2 = generate_mutants(sample_pipeline.program)
    assert pool2.mutants == sample_pipeline.pool.mutants
    assert [m.id for m in pool2.mutants] == list(range(len(pool2.mutants)))
    # Function names ascending, then node id, operator order, variant.
    keys = [(m.fn, m.node_id, m.variant) for m in pool2.mutants]
    fn_order = [m.fn for m in pool2.mutants]
    assert fn_order == sorted(fn_order)
    assert keys == sorted(keys, key=lambda k: (k[0],))  # grouped per function


def test_uniqueness_invariant(corpus_pipelines):
    for pipe in corpus_pipelines.values():
        keys = [(m.op, m.fn, m.node_id, m.variant) for m in pipe.pool.mutants]
        assert len(keys) == len(set(keys))


def _reference_apply(program, m):
    """A mutant built the slow way: deep-copy the whole function, then find
    the path to the node by searching every node."""
    fn = copy.deepcopy(program.functions[m.fn])
    path = []

    def search(node):
        path.append(node)
        if node.node_id == m.node_id or any(search(c) for c in children(node)):
            return True
        path.pop()
        return False

    assert search(fn.body)
    _transform(fn, path, m)
    return Program(globals=program.globals, functions={**program.functions, m.fn: fn}, tests=program.tests)


def test_apply_leaves_original_untouched(corpus_pipelines):
    for name, pipe in corpus_pipelines.items():
        p = pipe.program
        baseline = print_program(p)
        for m in pipe.pool.mutants:
            mutated = apply_mutant(p, m)
            assert print_program(p) == baseline, f"{name}#{m.id}"
            text = print_program(mutated)
            assert text != baseline, f"{name}#{m.id}"
            assert text == print_program(_reference_apply(p, m)), f"{name}#{m.id}"


def test_mutants_stay_parseable(corpus_pipelines):
    for name, pipe in corpus_pipelines.items():
        for m in pipe.pool.mutants:
            text = print_program(apply_mutant(pipe.program, m))
            parse(text)  # must not raise


def _text_programs(corpus_pipelines):
    yield from ((name, pipe.program) for name, pipe in corpus_pipelines.items())
    yield "edges", parse((Path(__file__).parent / "edges.mini").read_text(encoding="utf-8"))
    # Rewrites whose operand gains or loses parentheses in the printed mutant.
    yield "parens", parse("fn f(a, b, c){ if (c || a && b) { return -(a + b) * c; } return (a || b) && c; }")


def _spliced(line, before, after):
    """Every line that `line` becomes when one occurrence of `before`, or of
    it in parentheses, is replaced by `after` or by it in parentheses: the
    printer parenthesizes a rewritten operand where the precedence asks."""
    out = set()
    for old in (before, f"({before})"):
        at = line.find(old)
        while at >= 0:
            out.update(line[:at] + new + line[at + len(old):] for new in (after, f"({after})"))
            at = line.find(old, at + 1)
    return out


def test_single_point_diff(corpus_pipelines):
    # The pool's before/after text and the applied mutant come from one
    # rewrite: the printed mutant differs from the printed program only
    # where `before` became `after`, or by the one deleted line for SVR.
    for name, program in _text_programs(corpus_pipelines):
        base_lines = print_program(program).splitlines()
        for m in generate_mutants(program).mutants:
            mut_lines = print_program(apply_mutant(program, m)).splitlines()
            where = f"{name}#{m.id} {m.op.value}"
            if m.op is Operator.SVR:
                assert m.after == "", where
                gone = [i for i in range(len(base_lines)) if base_lines[:i] + base_lines[i + 1 :] == mut_lines]
                assert gone and base_lines[gone[0]].strip() == m.before, where
                continue
            assert len(mut_lines) == len(base_lines), where
            differing = [i for i, (a, b) in enumerate(zip(base_lines, mut_lines)) if a != b]
            assert len(differing) == 1, where
            i = differing[0]
            assert mut_lines[i] in _spliced(base_lines[i], m.before, m.after), where


def test_ror_variants_semantics():
    p = parse("fn f(x){ return x < 2; } fn test_a(){ f(0); }")
    pool = generate_mutants(p)
    rors = [m for m in pool.mutants if m.op is Operator.ROR]
    assert [m.variant for m in rors] == [0, 1]
    boundary = apply_mutant(p, rors[0])
    negation = apply_mutant(p, rors[1])
    assert run_function(boundary, "f", [2])[0] is True  # < became <=
    assert run_function(negation, "f", [2])[0] is True  # < became >=
    assert run_function(negation, "f", [0])[0] is False


def test_each_mutant_runs_its_own_code():
    # Code is compiled once per FunctionDef and cached beside the AST: a
    # mutant's deep copy must not inherit its parent's code, and a dropped
    # mutant's code must not outlive it.
    p = parse("fn f(x){ return x + 1; } fn test_a(){ f(1); }")
    assert run_function(p, "f", [3])[0] == 4
    got = {m.op: run_function(apply_mutant(p, m), "f", [3])[0] for m in generate_mutants(p).mutants}
    assert got == {Operator.AOR: 2, Operator.CRP: 5, Operator.RVM: 0}
    assert run_function(p, "f", [3])[0] == 4


def test_crp_wraps_at_int_max():
    big = (1 << 63) - 1
    p = parse(f"fn f(){{ return {big}; }} fn test_a(){{ f(); }}")
    m = next(m for m in generate_mutants(p).mutants if m.op is Operator.CRP)
    assert run_function(apply_mutant(p, m), "f", [])[0] == -(1 << 63)


def test_svr_deletes_assignment():
    p = parse("fn f(){ let a = 1; a = 5; return a; } fn test_a(){ f(); }")
    m = next(m for m in generate_mutants(p).mutants if m.op is Operator.SVR)
    assert run_function(apply_mutant(p, m), "f", [])[0] == 1
    assert m.after == ""


def test_aod_strips_unary_minus():
    p = parse("fn f(x){ return -x; } fn test_a(){ f(3); }")
    m = next(m for m in generate_mutants(p).mutants if m.op is Operator.AOD)
    assert run_function(apply_mutant(p, m), "f", [3])[0] == 3


def test_rvm_uses_type_default():
    cases = [
        ("return 7;", "return 0;"),
        ("return true;", "return false;"),
        ('return "x";', 'return "";'),
        ("return [1];", "return [];"),
    ]
    for body, expected in cases:
        p = parse("fn f(){ %s } fn test_a(){ f(); }" % body)
        ms = [m for m in generate_mutants(p).mutants if m.op is Operator.RVM]
        assert len(ms) == 1 and ms[0].after == expected
    # Already-default returns yield no RVM mutant.
    for body in ("return 0;", "return false;", 'return "";', "return [];"):
        p = parse("fn f(){ %s } fn test_a(){ f(); }" % body)
        assert not any(m.op is Operator.RVM for m in generate_mutants(p).mutants)


def test_stale_mutant_detection(sample_pipeline):
    other = parse("fn g(){ return 1; } fn test_a(){ g(); }")
    m = sample_pipeline.pool.mutants[0]
    with pytest.raises(StaleMutant):
        apply_mutant(other, m)
    bad_node = Mutant(id=0, op=m.op, fn=m.fn, node_id=99999, variant=0, before="", after="")
    with pytest.raises(StaleMutant):
        apply_mutant(sample_pipeline.program, bad_node)
    wrong_op = Mutant(id=0, op=Operator.LCR, fn=m.fn, node_id=m.node_id, variant=0, before="", after="")
    with pytest.raises(StaleMutant):
        apply_mutant(sample_pipeline.program, wrong_op)


def test_pool_json_round_trip(sample_pipeline):
    doc = pool_to_json(sample_pipeline.pool)
    back = pool_from_json(doc)
    assert back.mutants == sample_pipeline.pool.mutants
    assert back.fingerprint == sample_pipeline.pool.fingerprint
    for entry in doc["mutants"]:
        assert set(entry) == {"id", "op", "fn", "node", "variant", "before", "after"}
