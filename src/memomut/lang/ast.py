"""AST node definitions, node numbering, and the canonical pretty-printer."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .values import Value, literal_str


@dataclass
class Node:
    # Preorder label within the enclosing function, assigned after parsing.
    node_id: int = field(default=-1, init=False)


class Expr(Node):
    pass


class Stmt(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class ArrayLit(Expr):
    items: list[Expr]


@dataclass
class Name(Expr):
    ident: str
    is_global: bool = False  # set by the resolver
    slot: int = field(default=-1, init=False)  # a local's frame slot, set by the resolver


@dataclass
class FnRefLit(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Index(Expr):
    array: Expr
    index: Expr


@dataclass
class Call(Expr):
    # Direct calls carry `name` (resolved function or builtin) and a None
    # callee; indirect calls evaluate `callee` to a FnRef at runtime.
    callee: Optional[Expr]
    name: Optional[str]
    args: list[Expr]
    is_builtin: bool = False


@dataclass
class Block(Stmt):
    stmts: list[Stmt]


@dataclass
class Let(Stmt):
    name: str
    value: Expr
    slot: int = field(default=-1, init=False)  # set by the resolver


@dataclass
class Assign(Stmt):
    target: Union[Name, Index]
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Block
    orelse: Optional[Block]


@dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Assert(Stmt):
    cond: Expr


@dataclass
class FunctionDef:
    name: str
    params: list[str]
    body: Block
    max_node_id: int = -1
    nslots: int = field(default=0, init=False)  # params plus lets, set by the resolver


@dataclass
class Program:
    globals: list[tuple[str, Value]]
    functions: dict[str, FunctionDef]
    tests: list[str]


BUILTINS = ("len", "print", "push", "rand", "time_now")


def children(node: Node) -> list[Node]:
    """Direct child nodes in source order."""
    out: list[Node] = []
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, Node):
            out.append(v)
        elif isinstance(v, list):
            out.extend(x for x in v if isinstance(x, Node))
    return out


def walk(node: Node) -> Iterator[Node]:
    """Preorder traversal."""
    yield node
    for c in children(node):
        yield from walk(c)


def number_nodes(fn: FunctionDef) -> None:
    """Assign dense preorder ids, starting at 0 with the body block."""
    next_id = 0
    for n in walk(fn.body):
        n.node_id = next_id
        next_id += 1
    fn.max_node_id = next_id - 1


def replace_child(parent: Node, old: Node, new: Node) -> bool:
    """Swap `old` for `new` among parent's direct children."""
    for f in dataclasses.fields(parent):
        v = getattr(parent, f.name)
        if v is old:
            setattr(parent, f.name, new)
            return True
        if isinstance(v, list):
            for i, x in enumerate(v):
                if x is old:
                    v[i] = new
                    return True
    return False


# ---------------------------------------------------------------------------
# Canonical pretty-printer.

# Binary operators by precedence, loosest first; the parser climbs this table.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY_PREC = 7


def expr_str(e: Expr, min_prec: int = 0) -> str:
    t = type(e)
    if t is IntLit:
        s = str(e.value)
        prec = 9 if e.value >= 0 else _UNARY_PREC
    elif t is BoolLit:
        s, prec = ("true" if e.value else "false"), 9
    elif t is StrLit:
        s, prec = literal_str(e.value), 9
    elif t is Name:
        s, prec = e.ident, 9
    elif t is FnRefLit:
        s, prec = "&" + e.name, 9
    elif t is ArrayLit:
        s = "[" + ", ".join(expr_str(x) for x in e.items) + "]"
        prec = 9
    elif t is Unary:
        s = e.op + expr_str(e.operand, _UNARY_PREC)
        prec = _UNARY_PREC
    elif t is Binary:
        prec = PRECEDENCE[e.op]
        s = f"{expr_str(e.left, prec)} {e.op} {expr_str(e.right, prec + 1)}"
    elif t is Index:
        s = expr_str(e.array, 8) + "[" + expr_str(e.index) + "]"
        prec = 8
    elif t is Call:
        head = e.name if e.callee is None else expr_str(e.callee, 8)
        s = head + "(" + ", ".join(expr_str(a) for a in e.args) + ")"
        prec = 8
    else:
        raise TypeError(f"not an expression: {e!r}")
    if prec < min_prec:
        return "(" + s + ")"
    return s


def stmt_str(s: Stmt) -> str:
    """Single-line rendering of a statement (block statements flattened)."""
    return "\n".join(_stmt_lines(s, 0))


def _stmt_lines(s: Stmt, depth: int) -> list[str]:
    pad = "    " * depth
    t = type(s)
    if t is Let:
        return [f"{pad}let {s.name} = {expr_str(s.value)};"]
    if t is Assign:
        return [f"{pad}{expr_str(s.target)} = {expr_str(s.value)};"]
    if t is Return:
        if s.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {expr_str(s.value)};"]
    if t is ExprStmt:
        return [f"{pad}{expr_str(s.expr)};"]
    if t is Assert:
        return [f"{pad}assert({expr_str(s.cond)});"]
    if t is If:
        lines = [f"{pad}if ({expr_str(s.cond)}) {{"]
        for st in s.then.stmts:
            lines.extend(_stmt_lines(st, depth + 1))
        if s.orelse is not None:
            lines.append(f"{pad}}} else {{")
            for st in s.orelse.stmts:
                lines.extend(_stmt_lines(st, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if t is While:
        lines = [f"{pad}while ({expr_str(s.cond)}) {{"]
        for st in s.body.stmts:
            lines.extend(_stmt_lines(st, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if t is Block:
        lines = [f"{pad}{{"]
        for st in s.stmts:
            lines.extend(_stmt_lines(st, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"not a statement: {s!r}")


def function_str(fn: FunctionDef) -> str:
    lines = [f"fn {fn.name}({', '.join(fn.params)}) {{"]
    for st in fn.body.stmts:
        lines.extend(_stmt_lines(st, 1))
    lines.append("}")
    return "\n".join(lines)


def print_program(program: Program) -> str:
    """Canonical source text; parsing it back reproduces the AST."""
    parts = [f"global {name} = {literal_str(val)};" for name, val in program.globals]
    if parts:
        parts.append("")
    for fn in program.functions.values():
        parts.append(function_str(fn))
        parts.append("")
    return "\n".join(parts)
