"""Compiles Mini functions into Python closures that charge steps exactly.

Each FunctionDef is compiled once into nested Python closures (Feeley &
Lapalme, "Using closures for code generation", 1987) that run over a
flat list of local slots per call.  Scope is not decided here: the
parser has already given every parameter, `let` and local name its
slot, and the compiler reads those slots from the AST.

Every evaluated AST node costs one step, charged at the point and in
the order a tree walk over the AST would charge it, so step counts,
error nodes and the step limit do not depend on how the code was
compiled.  Steps are charged together only where no observable event (a
call, a hook, a builtin, an error or a store) can fall between them, and
a merged charge that reaches the limit leaves the step count at the
limit, as charging one step at a time would.

Every operation with fixed operands (the operators but `&&` and `||`,
index loads, array stores, `let`, assignments, `return`, expression
statements, `assert`, unary `-` and `!`, name loads and literals) is
written once, as a spec and a body.  The spec lists the node's own
steps (`+`) and its operands in evaluation order: "+ a b" for an
operator, "+ v + a b" for an array store (the statement, its value, the
target, the array, the index).  A leaf operand (a local name or a
literal) has no closure of its own (Proebsting's superoperators): its
parent reads it from the frame, where literals sit after the locals.
So an operation with n operands comes in 2^n shapes, and one rule
writes them all: steps build up across the node's own steps and its
leaf reads, and are charged just before a non-leaf operand's closure is
called and before the body.  Each shape is compiled once, at import.

Blocks, `if`, `while`, `&&`, `||`, calls and array literals are written
by hand.  Their argument lists and items are built into a new list on
every evaluation, left to right.  When all of them are leaves, it is
read from their frame slots at once and their steps are charged with
the call's own.  Otherwise each gets its closure, and a list display of
their calls builds a list of up to three values (in CPython 3.11 a list
comprehension is a call of its own) and a loop that appends builds a
longer one.  `interp` builds executions on top of this module.

There is one way to compile, `compile_function`, and it records the
closure it built for every block, statement and expression node.  A
mutant's function is compiled the same way with the code of the
function `apply_mutant` copied it from as its parent: a node the two
share is the parent's own object, so it gets the parent's closure back
unchanged, and only the copied path down to the mutation and the nodes
the mutation brings are compiled anew.  The mutant's literal slots start
as the parent's table, and a literal the parent lacks (CRP's `k+1`,
RVM's default) is appended after it, so every reused closure's frame
slots stay valid.  A from-scratch compile is the same with no parent.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional

from .ast import (
    ArrayLit,
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    ExprStmt,
    FnRefLit,
    FunctionDef,
    If,
    Index,
    IntLit,
    Let,
    Name,
    Return,
    Stmt,
    StrLit,
    Unary,
    While,
    per_node,
)
from .values import (
    INT_MAX,
    INT_MIN,
    UNIT,
    FnRef,
    contains_array,
    deep_equal,
    trunc_div,
    trunc_mod,
    wrap64,
)


# Control-flow signals, caught where an execution ends.  A `return`
# needs none: statement closures return None to fall through and the
# returned value otherwise.
class RuntimeErr(Exception):
    def __init__(self, kind: str, node_id: int):
        self.kind = kind
        self.node_id = node_id


class AssertFail(Exception):
    def __init__(self, node_id: int):
        self.node_id = node_id


class StepLimit(Exception):
    pass


class Code:
    """A compiled function: its arity, the frame past the parameters (the
    unset local slots, then the function's literals), the closure of its
    body block and, in `stmts`, those of the block's statements, which a
    test resumed part way through its body runs from.  `consts` gives
    each literal its frame slot, and `closures` holds the closure compiled
    for each node, by `id`, for the compile of a mutant of the function to
    reuse."""

    __slots__ = ("arity", "pad", "body", "stmts", "consts", "closures")

    def __init__(self, arity: int, pad: list, body, stmts: tuple, consts: dict, closures: dict):
        self.arity = arity
        self.pad = pad
        self.body = body
        self.stmts = stmts
        self.consts = consts
        self.closures = closures


# -- the compiler -----------------------------------------------------------
#
# Every closure takes (st, fr): the ExecState, through whose `invoke` and
# `call_builtin` it makes calls, and the current call's slot list.  Every
# step charge is the same block:
#
#     st.steps = n = st.steps + 1
#     if n >= st.limit:
#         raise StepLimit()
#
# A charge of k > 1 steps at once raises `_limit(st)` instead.  `_shapes`
# writes it for every operation with fixed operands; the closures of the
# control flow and of calls, here in `_Compiler`, write it by hand.


def _limit(st) -> StepLimit:
    """The StepLimit of a merged charge, with the steps left at the limit."""
    st.steps = st.limit
    return StepLimit()


class _Compiler:
    def __init__(self, nslots: int, parent: Optional[Code]):
        self.nslots = nslots
        # (node type, value) -> frame slot: the parent's, then any new ones.
        self.consts: dict[tuple, int] = {} if parent is None else dict(parent.consts)
        # Closures by the `id` of their node (nodes compare by value, so
        # they are unhashable); the parent's nodes live as long as it does.
        self.reuse: dict[int, object] = {} if parent is None else parent.closures
        self.closures: dict[int, object] = {}

    def closure(self, node):
        """The closure of a block, statement or expression node: the
        parent's if the node is one of the parent's own, else a new one."""
        key = id(node)
        f = self.reuse.get(key)
        if f is None:
            f = self.closures[key] = (self._stmt if isinstance(node, Stmt) else self._expr)(node)
        return f

    def _leaf(self, e):
        """The frame slot of a leaf operand, or None for any other node."""
        if not _is_leaf(e):
            return None
        t = type(e)
        if t is Name:
            return e.slot
        value = FnRef(e.name) if t is FnRefLit else e.value
        return self.consts.setdefault((t, value), self.nslots + len(self.consts))

    def _operand(self, e):
        """The frame slot of a leaf operand, or the closure of any other."""
        slot = self._leaf(e)
        return self.closure(e) if slot is None else slot

    # -- statements -----------------------------------------------------

    def _block(self, b: Block):
        stmts = tuple(map(self.closure, b.stmts))

        def run(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            for s in stmts:
                r = s(st, fr)
                if r is not None:
                    return r
            return None

        return run

    def _stmt(self, s):
        t = type(s)
        if t is Block:
            return self._block(s)
        if t is Let:
            return _LET(self._operand(s.value), s.slot)
        if t is Assign:
            return self._assign(s)
        if t is If:
            return self._if(s)
        if t is While:
            return self._while(s)
        if t is Return:
            if s.value is None:
                return _CONST(UNIT)  # one step, then return unit
            return _RETURN(self._operand(s.value))
        if t is ExprStmt:
            return _EXPR_STMT(self._operand(s.expr))
        if t is Assert:
            return _ASSERT(self._operand(s.cond), s.node_id)
        raise TypeError(f"unknown statement: {s!r}")

    def _assign(self, s: Assign):
        target, value = s.target, self._operand(s.value)
        if type(target) is Index:
            array, index = self._operand(target.array), self._operand(target.index)
            return _STORE(value, array, index, target.node_id)
        if target.is_global:
            return _ASSIGN_GLOBAL(value, target.ident)
        return _ASSIGN(value, target.slot)

    def _if(self, s: If):
        cond, then, nid = self.closure(s.cond), self.closure(s.then), s.node_id
        orelse = None if s.orelse is None else self.closure(s.orelse)

        def if_(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            c = cond(st, fr)
            if c is True:
                return then(st, fr)
            if c is not False:
                raise RuntimeErr("type_mismatch", nid)
            if orelse is not None:
                return orelse(st, fr)
            return None

        return if_

    def _while(self, s: While):
        cond, body, nid = self.closure(s.cond), self.closure(s.body), s.node_id

        def while_(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            while True:
                c = cond(st, fr)
                if c is True:
                    r = body(st, fr)
                    if r is not None:
                        return r
                elif c is False:
                    return None
                else:
                    raise RuntimeErr("type_mismatch", nid)

        return while_

    # -- expressions ----------------------------------------------------

    def _expr(self, e):
        t = type(e)
        if t is IntLit or t is BoolLit or t is StrLit:
            return _CONST(e.value)
        if t is FnRefLit:
            return _CONST(FnRef(e.name))
        if t is Name:
            if e.is_global:
                return _LOAD_GLOBAL(e.ident)
            return _LOAD(e.slot)
        if t is Binary:
            return self._binary(e)
        if t is Call:
            return self._call(e)
        if t is Unary:
            return (_NEG if e.op == "-" else _NOT)(self._operand(e.operand), e.node_id)
        if t is Index:
            return _LOAD_ITEM(self._operand(e.array), self._operand(e.index), e.node_id)
        if t is ArrayLit:
            return self._array(e)
        raise TypeError(f"unknown expression: {e!r}")

    def _array(self, e: ArrayLit):
        items, k = self._args(e.items)

        def array(st, fr):
            st.steps = n = st.steps + k
            if n >= st.limit:
                raise _limit(st)
            return items(st, fr)

        return array

    def _call(self, e: Call):
        (argv, k), nid = self._args(e.args), e.node_id
        if e.callee is not None:
            callee = self.closure(e.callee)

            def call_indirect(st, fr):
                st.steps = n = st.steps + k
                if n >= st.limit:
                    raise _limit(st)
                args = argv(st, fr)
                target = callee(st, fr)
                if type(target) is not FnRef:
                    raise RuntimeErr("type_mismatch", nid)
                if target.name in st.code:
                    return st.invoke(target.name, args, nid)
                return st.call_builtin(target.name, args, nid)

            return call_indirect
        name = e.name
        if e.is_builtin:

            def call_builtin(st, fr):
                st.steps = n = st.steps + k
                if n >= st.limit:
                    raise _limit(st)
                return st.call_builtin(name, argv(st, fr), nid)

            return call_builtin

        def call(st, fr):
            st.steps = n = st.steps + k
            if n >= st.limit:
                raise _limit(st)
            return st.invoke(name, argv(st, fr), nid)

        return call

    def _args(self, exprs):
        """A closure building a new list of the values of `exprs`, left to
        right, and the steps its caller charges with its own: all of them
        when every one is a leaf, read from the frame, and otherwise one.

        With a non-leaf among them, every expression gets its closure, and
        the list is a display of their calls for up to three and a loop
        that appends for more: no comprehension, which would be a function
        call of its own on every evaluation."""
        if not all(map(_is_leaf, exprs)):
            args = tuple(map(self.closure, exprs))
            if len(args) == 1:
                (a0,) = args
                return (lambda st, fr: [a0(st, fr)]), 1
            if len(args) == 2:
                a0, a1 = args
                return (lambda st, fr: [a0(st, fr), a1(st, fr)]), 1
            if len(args) == 3:
                a0, a1, a2 = args
                return (lambda st, fr: [a0(st, fr), a1(st, fr), a2(st, fr)]), 1

            def build(st, fr):
                values = []
                for a in args:
                    values.append(a(st, fr))
                return values

            return build, 1
        slots = [self._leaf(a) for a in exprs]
        if len(slots) > 1:
            get = operator.itemgetter(*slots)
            return (lambda st, fr: list(get(fr))), 1 + len(slots)
        if slots:
            k = slots[0]
            return (lambda st, fr: [fr[k]]), 2
        return (lambda st, fr: []), 1

    def _binary(self, e: Binary):
        op, nid = e.op, e.node_id
        if op == "&&" or op == "||":
            left, right = self.closure(e.left), self.closure(e.right)
            decisive = op == "||"  # the left value that decides the result

            def logic(st, fr):
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                a = left(st, fr)
                if a is not True and a is not False:
                    raise RuntimeErr("type_mismatch", nid)
                if a is decisive:
                    return a
                b = right(st, fr)
                if b is True or b is False:
                    return b
                raise RuntimeErr("type_mismatch", nid)

            return logic
        return _OPERATORS[op](self._operand(e.left), self._operand(e.right), nid)


def _is_leaf(e) -> bool:
    """A local name or a literal."""
    t = type(e)
    return (t is Name and not e.is_global) or t is IntLit or t is BoolLit or t is StrLit or t is FnRefLit


# -- operations with fixed operands ----------------------------------------
#
# An operation is a spec and a body, which uses the operand values by
# their names in the spec.  `_shapes` writes the source of every shape,
# each operand a frame slot `<x>k` or a closure `<x>_`, by the one charge
# rule of the module docstring, and compiles it with `exec`, as
# `dataclasses` and `namedtuple` do; the operation's values, the node's
# operands and its own values are closure cells.


def _charge(k: int) -> list[str]:
    """The source lines that charge `k` steps: none for 0."""
    if not k:
        return []
    raise_ = "raise StepLimit()" if k == 1 else "raise _limit(st)"
    return [f"st.steps = n = st.steps + {k}", "if n >= st.limit:", f"    {raise_}"]


def _shapes(name, spec, body, values="", node=""):
    """The factory of an operation: `shapes(*values)` gives the function
    that takes a node's operands of `spec`, each a frame slot or a
    closure, then its `node` values, and makes the node's closure, named
    `name`, in the shape its operands take."""
    tokens = spec.split()
    operands = [t for t in tokens if t != "+"]
    src, makers = [f"def shapes({values}):"], []
    for shape in itertools.product((False, True), repeat=len(operands)):
        is_closure = dict(zip(operands, shape))
        lines, steps, reads = [], 0, []
        for t in tokens:
            if t != "+" and is_closure[t]:
                lines += _charge(steps) + reads + [f"{t} = {t}_(st, fr)"]
                steps, reads = 0, []
            else:
                steps += 1
                if t != "+":
                    reads.append(f"{t} = fr[{t}k]")
        lines += _charge(steps) + reads + body.splitlines()
        params = [t + ("_" if is_closure[t] else "k") for t in operands] + ([node] if node else [])
        makers.append(f"shape{len(makers)}")
        src += [
            f"    def {makers[-1]}({', '.join(params)}):",
            f"        def {name}(st, fr):",
            *("            " + line for line in lines),
            f"        return {name}",
        ]
    if operands:
        # The shape's index: one bit per operand, set for a closure.
        n = len(operands)
        index = " + ".join(f"{1 << (n - 1 - i)} * callable({t})" for i, t in enumerate(operands))
        args = ", ".join(operands + ["*node"])
        src += [
            f"    makers = {', '.join(makers)}",
            f"    def pick({args}):",
            f"        return makers[{index}]({args})",
            "    return pick",
        ]
    else:
        src.append(f"    return {makers[0]}")
    ns = {}
    exec(compile("\n".join(src) + "\n", f"<{name} shapes>", "exec"), globals(), ns)
    return ns["shapes"]


# A binary operator on two ints: a ZeroDivisionError from `/` or `%` is
# the node's div_by_zero, and results wrap to 64 bits unless they are
# `exact`.  `mixed(a, b, nid)` answers for operands not both ints.
_operator = _shapes("op", "+ a b", values="fn, exact, mixed", node="nid", body="""\
if type(a) is not int or type(b) is not int:
    return mixed(a, b, nid)
try:
    v = fn(a, b)
except ZeroDivisionError:
    raise RuntimeErr("div_by_zero", nid) from None
return v if exact or INT_MIN <= v <= INT_MAX else wrap64(v)
""")

# An index load or store needs an array `a` and an int index `b` within it.
_INDEX_CHECK = """\
if type(a) is not list or type(b) is not int:
    raise RuntimeErr("type_mismatch", nid)
if b < 0 or b >= len(a):
    raise RuntimeErr("index_oob", nid)
"""

_LOAD_ITEM = _shapes("load_item", "+ a b", _INDEX_CHECK + "return a[b]", node="nid")()

# An array store evaluates its value under the statement's own step, then
# the target's array and index under the target's.
_STORE = _shapes("store", "+ v + a b", _INDEX_CHECK + """\
if type(v) is list and contains_array(v, a):
    raise RuntimeErr("array_cycle", nid)
a[b] = v
""", node="nid")()

# An assignment to a name charges the name's step once its value is known.
_ASSIGN = _shapes("assign", "+ v +", "fr[slot] = v", node="slot")()
_ASSIGN_GLOBAL = _shapes("assign_global", "+ v +", "st.globals[ident] = v", node="ident")()
_LET = _shapes("let", "+ v", "fr[slot] = v", node="slot")()
_RETURN = _shapes("return_", "+ v", "return v")()
_EXPR_STMT = _shapes("expr_stmt", "+ v", "")()

_ASSERT = _shapes("assert_", "+ v", """\
if v is True:
    return None
if v is False:
    raise AssertFail(nid)
raise RuntimeErr("type_mismatch", nid)
""", node="nid")()

_NEG = _shapes("neg", "+ v", """\
if type(v) is not int:
    raise RuntimeErr("type_mismatch", nid)
return v if v == INT_MIN else -v
""", node="nid")()

_NOT = _shapes("not_", "+ v", """\
if v is True:
    return False
if v is False:
    return True
raise RuntimeErr("type_mismatch", nid)
""", node="nid")()

_LOAD = _shapes("load", "+", "return fr[slot]", node="slot")()
_LOAD_GLOBAL = _shapes("load_global", "+", "return st.globals[ident]", node="ident")()
_CONST = _shapes("const", "+", "return value", node="value")()


def _type_mismatch(a, b, nid):
    raise RuntimeErr("type_mismatch", nid)


def _equal(a, b, nid):
    return deep_equal(a, b)  # values of different types are unequal


def _unequal(a, b, nid):
    return not deep_equal(a, b)


# `==` and `!=` compare ints directly and any other values by structure.
_OPERATORS = {
    "+": _operator(operator.add, False, _type_mismatch),
    "-": _operator(operator.sub, False, _type_mismatch),
    "*": _operator(operator.mul, False, _type_mismatch),
    "/": _operator(trunc_div, False, _type_mismatch),
    "%": _operator(trunc_mod, False, _type_mismatch),
    "<": _operator(operator.lt, True, _type_mismatch),
    "<=": _operator(operator.le, True, _type_mismatch),
    ">": _operator(operator.gt, True, _type_mismatch),
    ">=": _operator(operator.ge, True, _type_mismatch),
    "==": _operator(operator.eq, True, _equal),
    "!=": _operator(operator.ne, True, _unequal),
}


def compile_function(fn: FunctionDef, parent: Optional[Code] = None) -> Code:
    """The code of `fn`.  `parent` is the code of the function that
    `apply_mutant` copied `fn` from, if any: each node `fn` shares with it
    keeps the parent's closure, so only the copied path down to the
    mutation and the mutation itself are compiled."""
    compiler = _Compiler(fn.nslots, parent)
    body = compiler.closure(fn.body)
    built, reused = compiler.closures, compiler.reuse
    stmts = tuple(built.get(id(s)) or reused[id(s)] for s in fn.body.stmts)
    consts = [value for _, value in compiler.consts]
    pad = [None] * (fn.nslots - len(fn.params)) + consts
    return Code(len(fn.params), pad, body, stmts, compiler.consts, compiler.closures)


# The code of a function of the program, compiled on first use.
compiled = per_node(compile_function)
