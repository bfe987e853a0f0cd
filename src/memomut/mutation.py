"""Mutant generation, and the code a mutant runs, for Mini programs.

Eight operators over the AST; exactly one mutant per applicable
(operator, node, variant) opportunity in every non-test function.  Each
operator is written once, in `_mutations`, as a rewrite: the node it
replaces and the node that takes its place.  The pool prints both for
its `before` and `after` text, and `mutant_schema` compiles all of a
function's rewrites into one function that runs any of its mutants.  No
mutated AST is built: a mutant is its index in its function's schema,
and `apply_mutant` binds that index into the program's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .lang.ast import (
    BUILTINS,
    ArrayLit,
    Assign,
    Binary,
    BoolLit,
    Call,
    FunctionDef,
    If,
    IntLit,
    Node,
    Program,
    Return,
    Stmt,
    StrLit,
    Unary,
    While,
    expr_str,
    per_node,
    stmt_str,
    walk,
)
from .lang.compiler import Code, compile_schema
from .lang.interp import code_map
from .lang.values import wrap64
from .memo.encoding import program_fingerprint
from .project import typed


class Operator(Enum):
    AOR = "AOR"  # arithmetic operator replacement
    ROR = "ROR"  # relational operator replacement (boundary / negation)
    LCR = "LCR"  # logical connector replacement
    UOI_NEG = "UOI_NEG"  # negate if/while condition
    RVM = "RVM"  # return value -> default of its type
    CRP = "CRP"  # integer constant k -> k+1
    AOD = "AOD"  # unary minus deletion
    SVR = "SVR"  # assignment statement deletion


AOR_MAP = {"+": "-", "-": "+", "*": "/", "/": "*", "%": "*"}
ROR_BOUNDARY = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
ROR_NEGATION = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
LOGICAL = {"&&": "||", "||": "&&"}

# Binary operator -> its (operator, replacement) pairs in variant order:
# a relational operator's boundary variant, where it has one, comes first.
_SWAPS = {
    **{o: [(Operator.AOR, r)] for o, r in AOR_MAP.items()},
    **{o: [(Operator.ROR, r) for r in (ROR_BOUNDARY.get(o), ROR_NEGATION[o]) if r] for o in ROR_NEGATION},
    **{o: [(Operator.LCR, r)] for o, r in LOGICAL.items()},
}
_ZERO = {IntLit: 0, BoolLit: False, StrLit: ""}


@dataclass(frozen=True)
class Mutant:
    id: int
    op: Operator
    fn: str
    node_id: int
    variant: int
    before: str
    after: str


@dataclass
class MutantPool:
    mutants: list[Mutant]
    fingerprint: int


class StaleMutant(Exception):
    pass


def _default_for(e) -> Optional[Node]:
    """A fresh default literal of `e`'s type where the type is evident from
    the syntax; None where it is not, or where `e` already is that default."""
    t = type(e)
    if t is ArrayLit:
        return ArrayLit(items=[]) if e.items else None
    if t in _ZERO:
        lit = t
    elif t is Unary or t is Binary:
        lit = IntLit if e.op in AOR_MAP else BoolLit
    elif t is Call and e.is_builtin and BUILTINS.get(e.name) == "int":
        lit = IntLit
    else:
        return None
    if t is lit and e.value == _ZERO[lit]:
        return None
    return lit(_ZERO[lit])


def _with_id(node, node_id: int):
    node.node_id = node_id
    return node


def _mutations(node, new_id: int) -> list[tuple[Operator, int, Node, Optional[Node]]]:
    """Every mutation of one node, as (operator, variant, old, new): `new`
    takes the place of `old`, which is the node itself or, for UOI_NEG, its
    condition; None deletes `old` from its block.  A new node keeps the id
    of the node it stands in for; one that stands where no node stood gets
    `new_id`."""
    t = type(node)
    if t is Binary:
        return [
            (op, variant, node, _with_id(Binary(op=swap, left=node.left, right=node.right), node.node_id))
            for variant, (op, swap) in enumerate(_SWAPS[node.op])
        ]
    if t is If or t is While:
        return [(Operator.UOI_NEG, 0, node.cond, _with_id(Unary(op="!", operand=node.cond), new_id))]
    if t is Return and node.value is not None:
        default = _default_for(node.value)
        if default is None:
            return []
        return [(Operator.RVM, 0, node, _with_id(Return(value=_with_id(default, new_id)), node.node_id))]
    if t is IntLit:
        return [(Operator.CRP, 0, node, _with_id(IntLit(value=wrap64(node.value + 1)), node.node_id))]
    if t is Unary and node.op == "-":
        return [(Operator.AOD, 0, node, node.operand)]
    if t is Assign:
        return [(Operator.SVR, 0, node, None)]
    return []


def _text(node: Optional[Node]) -> str:
    if node is None:
        return ""
    return stmt_str(node) if isinstance(node, Stmt) else expr_str(node)


def generate_mutants(program: Program) -> MutantPool:
    """One mutant per opportunity, in deterministic pool order: by function
    name, then node id (the preorder of `walk`), then variant.

    Test function bodies are skipped; everything they call is fair game.
    """
    tests = set(program.tests)
    mutants: list[Mutant] = []
    for fn_name in sorted(program.functions):
        if fn_name in tests:
            continue
        fn = program.functions[fn_name]
        for node in walk(fn.body):
            for op, variant, old, new in _mutations(node, fn.max_node_id + 1):
                mutants.append(Mutant(len(mutants), op, fn_name, node.node_id, variant, _text(old), _text(new)))
    return MutantPool(mutants=mutants, fingerprint=program_fingerprint(program))


def apply_mutant(program: Program, m: Mutant) -> dict[str, Code]:
    """The code mutant `m` runs: the program's code map with `m.fn` bound,
    in its schema, to the mutant's index.  The program is untouched.

    Raises StaleMutant where `m` names no function, node or rewrite of
    `program`; node ids are dense and in preorder (`ast.number_nodes`)."""
    fn = program.functions.get(m.fn)
    if fn is None:
        raise StaleMutant(f"mutant {m.id}: function {m.fn!r} not in program")
    if not 0 <= m.node_id <= fn.max_node_id:
        raise StaleMutant(f"mutant {m.id}: node {m.node_id} not in {m.fn!r}")
    places, schema = mutant_schema(fn)
    index = places.get((m.node_id, m.op, m.variant))
    if index is None:
        raise StaleMutant(f"mutant {m.id}: no {m.op.value} variant {m.variant} at node {m.node_id} of {m.fn!r}")
    return {**code_map(program), m.fn: schema(index)}


@per_node
def mutant_schema(fn: FunctionDef) -> tuple[dict[tuple, int], Callable[[int], Code]]:
    """Every mutant of `fn`, compiled once: (places, code), where
    `places[(node_id, op, variant)]` is a mutant's index among `fn`'s, in
    pool order, and `code(index)` its function's code.  The alternatives
    are the rewrites of `_mutations`, which the pool prints."""
    places: dict[tuple, int] = {}
    alternatives: dict[int, list] = {}
    for node in walk(fn.body):
        for op, variant, old, new in _mutations(node, fn.max_node_id + 1):
            alternatives.setdefault(id(old), []).append((len(places), new))
            places[node.node_id, op, variant] = len(places)
    return places, compile_schema(fn, alternatives)


# -- JSON -------------------------------------------------------------------


def pool_to_json(pool: MutantPool) -> dict:
    return {
        "fingerprint": pool.fingerprint,
        "mutants": [
            {
                "id": m.id,
                "op": m.op.value,
                "fn": m.fn,
                "node": m.node_id,
                "variant": m.variant,
                "before": m.before,
                "after": m.after,
            }
            for m in pool.mutants
        ],
    }


def pool_from_json(doc: dict) -> MutantPool:
    mutants = [
        Mutant(
            id=typed(d["id"], int),
            op=Operator(d["op"]),
            fn=typed(d["fn"], str),
            node_id=typed(d["node"], int),
            variant=typed(d["variant"], int),
            before=typed(d["before"], str),
            after=typed(d["after"], str),
        )
        for d in doc["mutants"]
    ]
    ids: set[int] = set()
    for m in mutants:
        if m.id in ids:
            raise ValueError(f"mutant id {m.id} appears twice")
        ids.add(m.id)
    return MutantPool(mutants=mutants, fingerprint=typed(doc["fingerprint"], int))
