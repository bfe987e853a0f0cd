"""Compiles Mini functions into Python closures that charge steps exactly.

Each FunctionDef is compiled once into nested Python closures (Feeley &
Lapalme, "Using closures for code generation", 1987) that run over a
flat list of local slots per call.  Scope is not decided here: the
parser's resolver has already given every parameter, `let` and local
name its slot, and the compiler reads those slots from the AST.

Every evaluated AST node costs one step, charged at the point and in
the order a tree walk over the AST would charge it, so step counts,
error nodes and the step limit do not depend on how the code was
compiled.  A leaf operand (a local name or a literal) read by an
arithmetic, comparison or equality operator, an index, a `let`, a local
assignment, a `return` or an array store, or one of the arguments of a
call or the items of an array literal that are all leaves, has no
closure of its own: its parent reads it from the frame, where literals
sit after the locals, and charges its step.

So a binary operator, an index load and an array store, each with two
operands, come in four operand shapes: both leaves, the left only, the
right only, neither.  Each of these operations is written once, as a
body that fills in one source template holding the four shapes, and is
compiled once, at import, into one code object per operand shape.

Argument lists and array items are built into a new list on every
evaluation, left to right.  When all of them are leaves, it is read
from their frame slots at once.  Otherwise each gets its closure, and a
list display of their calls builds a list of up to three values (in
CPython 3.11 a list comprehension is a call of its own) and a loop that
appends builds a longer one.

Steps are charged together only where no observable event (a call, a
hook, a builtin, an error or a store) can fall between them: a node's
own step with the leaf operands that lead it, and a leaf that follows a
non-leaf operand only after that operand has returned.  A merged charge
that reaches the limit leaves the step count at the limit, as charging
one step at a time would.  `interp` builds executions on top of this
module.
"""

from __future__ import annotations

import operator
import textwrap
import weakref

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
    StrLit,
    Unary,
    While,
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
    unset local slots, then the function's literals), and the closure of
    its body block."""

    __slots__ = ("arity", "pad", "body")

    def __init__(self, arity: int, pad: list, body):
        self.arity = arity
        self.pad = pad
        self.body = body


# -- the compiler -----------------------------------------------------------
#
# Every closure takes (st, fr): the ExecState, through whose `invoke` and
# `call_builtin` it makes calls, and the current call's slot list.  Each
# one opens with the same step charge:
#
#     st.steps = n = st.steps + 1
#     if n >= st.limit:
#         raise StepLimit()
#
# A closure that charges k > 1 steps at once raises `_limit(st)` instead.


def _limit(st) -> StepLimit:
    """The StepLimit of a merged charge, with the steps left at the limit."""
    st.steps = st.limit
    return StepLimit()


class _Compiler:
    def __init__(self, nslots: int):
        self.nslots = nslots
        self.consts: dict[tuple, int] = {}  # (node type, value) -> frame slot

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
        return self.expr(e) if slot is None else slot

    # -- statements -----------------------------------------------------

    def block(self, b: Block):
        stmts = tuple(self.stmt(s) for s in b.stmts)

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

    def stmt(self, s):
        t = type(s)
        if t is Let:
            return self._let(s)
        if t is Assign:
            return self._assign(s)
        if t is If:
            return self._if(s)
        if t is While:
            return self._while(s)
        if t is Return:
            return self._return(s)
        if t is ExprStmt:
            return self._expr_stmt(s)
        if t is Assert:
            return self._assert(s)
        raise TypeError(f"unknown statement: {s!r}")

    def _let(self, s: Let):
        slot, k = s.slot, self._leaf(s.value)
        if k is not None:
            return _copy_slot(k, slot, 2)
        value = self.expr(s.value)

        def let(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            fr[slot] = value(st, fr)

        return let

    def _assign(self, s: Assign):
        target = s.target
        k = self._leaf(s.value) if type(target) is Name and not target.is_global else None
        if k is not None:
            return _copy_slot(k, target.slot, 3)  # the statement, the leaf, the store
        value = self.expr(s.value)
        if type(target) is Index:
            array, index = self._operand(target.array), self._operand(target.index)
            return _pick(_STORE, array, index, target.node_id, value)
        if target.is_global:
            ident = target.ident

            def assign(st, fr):
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                v = value(st, fr)
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                st.globals[ident] = v

            return assign
        slot = target.slot

        def assign(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            v = value(st, fr)
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            fr[slot] = v

        return assign

    def _if(self, s: If):
        cond, then, nid = self.expr(s.cond), self.block(s.then), s.node_id
        orelse = None if s.orelse is None else self.block(s.orelse)

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
        cond, body, nid = self.expr(s.cond), self.block(s.body), s.node_id

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

    def _return(self, s: Return):
        if s.value is None:
            return _const(UNIT)  # one step, then return unit
        k = self._leaf(s.value)
        if k is not None:

            def return_leaf(st, fr):
                st.steps = n = st.steps + 2
                if n >= st.limit:
                    raise _limit(st)
                return fr[k]

            return return_leaf
        value = self.expr(s.value)

        def return_(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            return value(st, fr)

        return return_

    def _expr_stmt(self, s: ExprStmt):
        expr = self.expr(s.expr)

        def expr_stmt(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            expr(st, fr)

        return expr_stmt

    def _assert(self, s: Assert):
        cond, nid = self.expr(s.cond), s.node_id

        def assert_(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            c = cond(st, fr)
            if c is True:
                return None
            if c is False:
                raise AssertFail(nid)
            raise RuntimeErr("type_mismatch", nid)

        return assert_

    # -- expressions ----------------------------------------------------

    def expr(self, e):
        t = type(e)
        if t is IntLit or t is BoolLit or t is StrLit:
            return _const(e.value)
        if t is FnRefLit:
            return _const(FnRef(e.name))
        if t is Name:
            return self._name(e)
        if t is Binary:
            return self._binary(e)
        if t is Call:
            return self._call(e)
        if t is Unary:
            return self._unary(e)
        if t is Index:
            return self._index(e)
        if t is ArrayLit:
            return self._array(e)
        raise TypeError(f"unknown expression: {e!r}")

    def _name(self, e: Name):
        if e.is_global:
            ident = e.ident

            def load_global(st, fr):
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                return st.globals[ident]

            return load_global
        slot = e.slot

        def load(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            return fr[slot]

        return load

    def _unary(self, e: Unary):
        operand, nid = self.expr(e.operand), e.node_id
        if e.op == "-":

            def neg(st, fr):
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                v = operand(st, fr)
                if type(v) is not int:
                    raise RuntimeErr("type_mismatch", nid)
                return v if v == INT_MIN else -v

            return neg

        def not_(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            v = operand(st, fr)
            if v is True:
                return False
            if v is False:
                return True
            raise RuntimeErr("type_mismatch", nid)

        return not_

    def _index(self, e: Index):
        return _pick(_LOAD_ITEM, self._operand(e.array), self._operand(e.index), e.node_id)

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
            callee = self.expr(e.callee)

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
            args = tuple(self.expr(a) for a in exprs)
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
            left, right = self.expr(e.left), self.expr(e.right)
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
        return _pick(_OPERATORS[op], self._operand(e.left), self._operand(e.right), nid)


def _is_leaf(e) -> bool:
    """A local name or a literal."""
    t = type(e)
    return (t is Name and not e.is_global) or t is IntLit or t is BoolLit or t is StrLit or t is FnRefLit


def _const(value):
    def const(st, fr):
        st.steps = n = st.steps + 1
        if n >= st.limit:
            raise StepLimit()
        return value

    return const


def _copy_slot(k, slot, steps):
    """A `let` or local assignment of a leaf: `steps` charged, then the store."""

    def copy_slot(st, fr):
        st.steps = n = st.steps + steps
        if n >= st.limit:
            raise _limit(st)
        fr[slot] = fr[k]

    return copy_slot


# -- two-operand operations ------------------------------------------------
#
# An operation fills the template in with its body, what it does with the
# operand values `a` and `b`, and its head, what it does before its node's
# own step.  `_shapes` compiles it with `exec`, as `dataclasses` and
# `namedtuple` do; its values, the node's operands and id are closure cells.

_TEMPLATE = """\
def shapes({values}):
    def both(lk, rk, {node}):
        def {name}(st, fr):
{head}
            st.steps = n = st.steps + 3
            if n >= st.limit:
                raise _limit(st)
            a = fr[lk]
            b = fr[rk]
{body}
        return {name}

    def left_leaf(lk, right, {node}):
        def {name}(st, fr):
{head}
            st.steps = n = st.steps + 2
            if n >= st.limit:
                raise _limit(st)
            a = fr[lk]
            b = right(st, fr)
{body}
        return {name}

    def right_leaf(left, rk, {node}):
        def {name}(st, fr):
{head}
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            a = left(st, fr)
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            b = fr[rk]
{body}
        return {name}

    def neither(left, right, {node}):
        def {name}(st, fr):
{head}
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            a = left(st, fr)
            b = right(st, fr)
{body}
        return {name}

    return both, left_leaf, right_leaf, neither
"""


def _shapes(name, body, head="", values="", node="nid"):
    """The factory of an operation's four shapes: `shapes(*values)` gives
    the makers (both leaves, the left only, the right only, neither) of
    closures named `name`, each taking the operands and then `node`."""
    src = _TEMPLATE.format(
        name=name, values=values, node=node,
        head=textwrap.indent(head, " " * 12), body=textwrap.indent(body, " " * 12),
    )
    ns = {}
    exec(compile(src, f"<{name} shapes>", "exec"), globals(), ns)
    return ns["shapes"]


def _pick(shapes, left, right, *node):
    """The shape for two operands, each a frame slot or a closure."""
    return shapes[2 * callable(left) + callable(right)](left, right, *node)


# A binary operator on two ints: a ZeroDivisionError from `/` or `%` is
# the node's div_by_zero, and results wrap to 64 bits unless they are
# `exact`.  `mixed(a, b, nid)` answers for operands not both ints.
_operator = _shapes("op", values="fn, exact, mixed", body="""\
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

_LOAD_ITEM = _shapes("load_item", body=_INDEX_CHECK + "return a[b]\n")()

# An array store evaluates its value first, under the statement's own step.
_STORE = _shapes("store", node="nid, value", head="""\
st.steps = n = st.steps + 1
if n >= st.limit:
    raise StepLimit()
v = value(st, fr)
""", body=_INDEX_CHECK + """\
if type(v) is list and contains_array(v, a):
    raise RuntimeErr("array_cycle", nid)
a[b] = v
""")()


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


# Compiled code per FunctionDef object, kept beside the AST so that
# copying, printing, fingerprinting and pickling never see it.  An entry
# lives as long as its FunctionDef: a mutant's private copy of one
# function is compiled once and dropped together with the mutant.
_COMPILED: dict[int, Code] = {}


def compiled(fn: FunctionDef) -> Code:
    """The compiled code of `fn`, compiling it on first use."""
    key = id(fn)
    code = _COMPILED.get(key)
    if code is None:
        compiler = _Compiler(fn.nslots)
        body = compiler.block(fn.body)
        consts = [value for _, value in compiler.consts]
        code = Code(len(fn.params), [None] * (fn.nslots - len(fn.params)) + consts, body)
        _COMPILED[key] = code
        weakref.finalize(fn, _COMPILED.pop, key, None)
    return code
