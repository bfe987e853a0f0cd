"""Mutant generation and on-the-fly application for Mini programs.

Eight operators over the AST; exactly one mutant per applicable
(operator, node, variant) opportunity in every non-test function.  The
shared Program stays immutable: applying a mutant copies only the nodes
on the path from its function's body down to the mutated node, and
shares every other node with the program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .lang.ast import (
    ArrayLit,
    Assign,
    Binary,
    BoolLit,
    Call,
    FnRefLit,
    FunctionDef,
    If,
    IntLit,
    Name,
    Program,
    Return,
    StrLit,
    Unary,
    While,
    children,
    expr_str,
    replace_child,
    stmt_str,
    walk,
)
from .lang.values import wrap64
from .memo.encoding import program_fingerprint


class Operator(Enum):
    AOR = "AOR"  # arithmetic operator replacement
    ROR = "ROR"  # relational operator replacement (boundary / negation)
    LCR = "LCR"  # logical connector replacement
    UOI_NEG = "UOI_NEG"  # negate if/while condition
    RVM = "RVM"  # return value -> default of its type
    CRP = "CRP"  # integer constant k -> k+1
    AOD = "AOD"  # unary minus deletion
    SVR = "SVR"  # assignment statement deletion


_OP_ORDER = {op: i for i, op in enumerate(Operator)}

AOR_MAP = {"+": "-", "-": "+", "*": "/", "/": "*", "%": "*"}
ROR_BOUNDARY = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
ROR_NEGATION = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
LOGICAL = {"&&": "||", "||": "&&"}


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


def _infer_type(e) -> Optional[str]:
    """Static type of an expression where it is syntactically evident."""
    t = type(e)
    if t is IntLit:
        return "int"
    if t is BoolLit:
        return "bool"
    if t is StrLit:
        return "str"
    if t is ArrayLit:
        return "arr"
    if t is FnRefLit:
        return "fnref"
    if t is Unary:
        return "int" if e.op == "-" else "bool"
    if t is Binary:
        return "int" if e.op in AOR_MAP else "bool"
    if t is Call and e.callee is None and e.name in ("len", "rand", "time_now"):
        return "int"
    return None


_RVM_DEFAULTS = {
    "int": (IntLit(value=0), "0"),
    "bool": (BoolLit(value=False), "false"),
    "str": (StrLit(value=""), '""'),
    "arr": (ArrayLit(items=[]), "[]"),
}


def _is_default(e, ty: str) -> bool:
    t = type(e)
    return (
        (ty == "int" and t is IntLit and e.value == 0)
        or (ty == "bool" and t is BoolLit and e.value is False)
        or (ty == "str" and t is StrLit and e.value == "")
        or (ty == "arr" and t is ArrayLit and not e.items)
    )


def _opportunities(node) -> list[tuple[Operator, int, str, str]]:
    """(operator, variant, before, after) tuples applicable at one node."""
    out: list[tuple[Operator, int, str, str]] = []
    t = type(node)
    if t is Binary:
        if node.op in AOR_MAP:
            swapped = Binary(op=AOR_MAP[node.op], left=node.left, right=node.right)
            out.append((Operator.AOR, 0, expr_str(node), expr_str(swapped)))
        elif node.op in ROR_NEGATION:
            variant = 0
            if node.op in ROR_BOUNDARY:
                swapped = Binary(op=ROR_BOUNDARY[node.op], left=node.left, right=node.right)
                out.append((Operator.ROR, variant, expr_str(node), expr_str(swapped)))
                variant += 1
            swapped = Binary(op=ROR_NEGATION[node.op], left=node.left, right=node.right)
            out.append((Operator.ROR, variant, expr_str(node), expr_str(swapped)))
        elif node.op in LOGICAL:
            swapped = Binary(op=LOGICAL[node.op], left=node.left, right=node.right)
            out.append((Operator.LCR, 0, expr_str(node), expr_str(swapped)))
    elif t in (If, While):
        before = expr_str(node.cond)
        out.append((Operator.UOI_NEG, 0, before, expr_str(Unary(op="!", operand=node.cond))))
    elif t is Return and node.value is not None:
        ty = _infer_type(node.value)
        if ty in _RVM_DEFAULTS and not _is_default(node.value, ty):
            out.append((Operator.RVM, 0, f"return {expr_str(node.value)};", f"return {_RVM_DEFAULTS[ty][1]};"))
    elif t is IntLit:
        out.append((Operator.CRP, 0, str(node.value), str(wrap64(node.value + 1))))
    elif t is Unary and node.op == "-":
        out.append((Operator.AOD, 0, expr_str(node), expr_str(node.operand)))
    elif t is Assign:
        out.append((Operator.SVR, 0, stmt_str(node), ""))
    return out


def generate_mutants(program: Program) -> MutantPool:
    """One mutant per opportunity, in deterministic pool order.

    Test function bodies are skipped; everything they call is fair game.
    """
    tests = set(program.tests)
    mutants: list[Mutant] = []
    for fn_name in sorted(program.functions):
        if fn_name in tests:
            continue
        fn = program.functions[fn_name]
        entries: list[tuple[int, int, int, str, str, Operator]] = []
        for node in walk(fn.body):
            for op, variant, before, after in _opportunities(node):
                entries.append((node.node_id, _OP_ORDER[op], variant, before, after, op))
        entries.sort(key=lambda e: e[:3])
        for node_id, _, variant, before, after, op in entries:
            mid = len(mutants)
            mutants.append(
                Mutant(id=mid, op=op, fn=fn_name, node_id=node_id, variant=variant, before=before, after=after)
            )
    return MutantPool(mutants=mutants, fingerprint=program_fingerprint(program))


def apply_mutant(program: Program, m: Mutant) -> Program:
    """Program view with the single mutation applied; the input is untouched."""
    fn = program.functions.get(m.fn)
    if fn is None:
        raise StaleMutant(f"function {m.fn!r} not in program")
    path = _copy_path(fn.body, m.node_id)
    if path is None:
        raise StaleMutant(f"node {m.node_id} not in {m.fn!r}")
    new_fn = copy.copy(fn)
    new_fn.body = path[0]
    try:
        _transform(new_fn, path, m)
    except (AssertionError, KeyError, AttributeError) as exc:
        raise StaleMutant(str(exc)) from exc
    return Program(
        globals=program.globals,
        functions={**program.functions, m.fn: new_fn},
        tests=program.tests,
    )


def _copy_path(body, node_id: int) -> Optional[list]:
    """Copies of the nodes from `body` down to node `node_id`, outermost
    first, each linked into the copy of its parent; None if there is no
    such node.  Node ids are preorder, so the target lies under the last
    child whose id is not past it."""
    node = _copy_node(body)
    path = [node]
    while node.node_id != node_id:
        below = [c for c in children(node) if c.node_id <= node_id]
        if not below:
            return None
        child = _copy_node(below[-1])
        replace_child(node, below[-1], child)
        node = child
        path.append(node)
    return path


def _copy_node(node):
    """A shallow copy of `node` with lists of its own (`stmts`, `args`, `items`)."""
    new = copy.copy(node)
    for name, value in vars(new).items():
        if type(value) is list:
            setattr(new, name, list(value))
    return new


def _transform(fn: FunctionDef, path: list, m: Mutant) -> None:
    node, op = path[-1], m.op
    if op is Operator.AOR:
        assert type(node) is Binary and node.op in AOR_MAP, "operator/node mismatch"
        node.op = AOR_MAP[node.op]
    elif op is Operator.ROR:
        assert type(node) is Binary and node.op in ROR_NEGATION, "operator/node mismatch"
        if m.variant == 0 and node.op in ROR_BOUNDARY:
            node.op = ROR_BOUNDARY[node.op]
        else:
            node.op = ROR_NEGATION[node.op]
    elif op is Operator.LCR:
        assert type(node) is Binary and node.op in LOGICAL, "operator/node mismatch"
        node.op = LOGICAL[node.op]
    elif op is Operator.UOI_NEG:
        assert type(node) in (If, While), "operator/node mismatch"
        wrapper = Unary(op="!", operand=node.cond)
        wrapper.node_id = fn.max_node_id + 1
        node.cond = wrapper
    elif op is Operator.RVM:
        assert type(node) is Return and node.value is not None, "operator/node mismatch"
        ty = _infer_type(node.value)
        assert ty in _RVM_DEFAULTS, "operator/node mismatch"
        default = copy.deepcopy(_RVM_DEFAULTS[ty][0])
        default.node_id = fn.max_node_id + 1
        node.value = default
    elif op is Operator.CRP:
        assert type(node) is IntLit, "operator/node mismatch"
        node.value = wrap64(node.value + 1)
    elif op is Operator.AOD:
        assert type(node) is Unary and node.op == "-", "operator/node mismatch"
        assert len(path) > 1, "node has no parent"
        replace_child(path[-2], node, node.operand)
    elif op is Operator.SVR:
        assert type(node) is Assign, "operator/node mismatch"
        assert len(path) > 1 and hasattr(path[-2], "stmts"), "node has no parent block"
        path[-2].stmts.remove(node)
    else:
        raise StaleMutant(f"unknown operator {op}")


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
            id=d["id"],
            op=Operator(d["op"]),
            fn=d["fn"],
            node_id=d["node"],
            variant=d["variant"],
            before=d["before"],
            after=d["after"],
        )
        for d in doc["mutants"]
    ]
    return MutantPool(mutants=mutants, fingerprint=doc["fingerprint"])
