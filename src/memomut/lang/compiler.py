"""Compiles Mini functions into Python closures that charge steps exactly.

Each FunctionDef is compiled once into nested Python closures (Feeley &
Lapalme, "Using closures for code generation", 1987) that run over a
flat list of local slots per call.  Scope is not decided here: the
parser's resolver has already given every parameter, `let` and local
name its slot, and the compiler reads those slots from the AST.

Every evaluated AST node costs one step, charged by the node's closure
at the point and in the order a tree walk over the AST would charge it,
so step counts, error nodes and the step limit do not depend on how the
code was compiled.  `interp` builds executions on top of this module.
"""

from __future__ import annotations

import operator
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
    """A compiled function: its arity, the unset slots past the
    parameters, and the closure of its body block."""

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


class _Compiler:
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
        value = self.expr(s.value)
        slot = s.slot

        def let(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            fr[slot] = value(st, fr)

        return let

    def _assign(self, s: Assign):
        value = self.expr(s.value)
        target = s.target
        if type(target) is Name:
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

        array, index, nid = self.expr(target.array), self.expr(target.index), target.node_id

        def store(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            v = value(st, fr)
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            arr = array(st, fr)
            idx = index(st, fr)
            if type(arr) is not list or type(idx) is not int:
                raise RuntimeErr("type_mismatch", nid)
            if idx < 0 or idx >= len(arr):
                raise RuntimeErr("index_oob", nid)
            if type(v) is list and contains_array(v, arr):
                raise RuntimeErr("array_cycle", nid)
            arr[idx] = v

        return store

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
        array, index, nid = self.expr(e.array), self.expr(e.index), e.node_id

        def load_item(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            arr = array(st, fr)
            idx = index(st, fr)
            if type(arr) is not list or type(idx) is not int:
                raise RuntimeErr("type_mismatch", nid)
            if idx < 0 or idx >= len(arr):
                raise RuntimeErr("index_oob", nid)
            return arr[idx]

        return load_item

    def _array(self, e: ArrayLit):
        items = tuple(self.expr(x) for x in e.items)

        def array(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            return [item(st, fr) for item in items]

        return array

    def _call(self, e: Call):
        argv, nid = self._args(e.args), e.node_id
        if e.callee is not None:
            callee = self.expr(e.callee)

            def call_indirect(st, fr):
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
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
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                return st.call_builtin(name, argv(st, fr), nid)

            return call_builtin

        def call(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            return st.invoke(name, argv(st, fr), nid)

        return call

    def _args(self, exprs):
        """A closure evaluating the arguments, left to right, into a new list."""
        args = tuple(self.expr(a) for a in exprs)
        return lambda st, fr: [a(st, fr) for a in args]

    def _binary(self, e: Binary):
        op, nid = e.op, e.node_id
        left, right = self.expr(e.left), self.expr(e.right)
        if op == "&&" or op == "||":
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
        if op == "==" or op == "!=":
            negate = op == "!="

            def equal(st, fr):
                st.steps = n = st.steps + 1
                if n >= st.limit:
                    raise StepLimit()
                a = left(st, fr)
                b = right(st, fr)
                ta = type(a)
                if ta is not type(b):
                    return negate
                if ta is list:
                    return deep_equal(a, b) is not negate
                return (a == b) is not negate

            return equal
        return _INT_OPS[op](left, right, nid)


def _const(value):
    def const(st, fr):
        st.steps = n = st.steps + 1
        if n >= st.limit:
            raise StepLimit()
        return value

    return const


# Integer operators: both operands must be ints; results wrap to 64 bits.


def _arith(fn):
    def make(left, right, nid):
        def arith(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            a = left(st, fr)
            b = right(st, fr)
            if type(a) is not int or type(b) is not int:
                raise RuntimeErr("type_mismatch", nid)
            v = fn(a, b)
            return v if INT_MIN <= v <= INT_MAX else wrap64(v)

        return arith

    return make


def _divide(fn):
    def make(left, right, nid):
        def divide(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            a = left(st, fr)
            b = right(st, fr)
            if type(a) is not int or type(b) is not int:
                raise RuntimeErr("type_mismatch", nid)
            if b == 0:
                raise RuntimeErr("div_by_zero", nid)
            return wrap64(fn(a, b))

        return divide

    return make


def _compare(fn):
    def make(left, right, nid):
        def compare(st, fr):
            st.steps = n = st.steps + 1
            if n >= st.limit:
                raise StepLimit()
            a = left(st, fr)
            b = right(st, fr)
            if type(a) is not int or type(b) is not int:
                raise RuntimeErr("type_mismatch", nid)
            return fn(a, b)

        return compare

    return make


_INT_OPS = {
    "+": _arith(operator.add),
    "-": _arith(operator.sub),
    "*": _arith(operator.mul),
    "/": _divide(trunc_div),
    "%": _divide(trunc_mod),
    "<": _compare(operator.lt),
    "<=": _compare(operator.le),
    ">": _compare(operator.gt),
    ">=": _compare(operator.ge),
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
        body = _Compiler().block(fn.body)
        code = Code(len(fn.params), [None] * (fn.nslots - len(fn.params)), body)
        _COMPILED[key] = code
        weakref.finalize(fn, _COMPILED.pop, key, None)
    return code
