"""Compiles each Mini function into Python source that charges steps exactly.

Each FunctionDef is written out as the source of a Python function and
compiled with `compile` and `exec`, one function at a time, as
`dataclasses` and `collections.namedtuple` do.  Frame slot k (the parser
gave every parameter and `let` its slot) is the local `vk`, literals are
constants, and every node is inline code: the operators, with `/` and `%`
truncating toward zero and the 64-bit wrap, index loads and stores,
`len` and `rand` of one argument, and `push` of two, as a store to the
array.  A
direct call is bound where it is written, to `_call` for a declared
function, which runs the hooks (see `interp`), or to `_builtin`; only
`_call_ref` tells the two apart at run time.  A direct call from a
function's body calls the callee's code itself when the run has no hooks,
the depth has room and the callee takes as many arguments as it is
given, and leaves every other case to `_call`; a test's statements, which
a run enters once, go through `_call` every time.

Every evaluated AST node costs one step, charged in the order a tree walk
would charge it, so step counts, error nodes and the step limit do not
depend on how the code was compiled.  The count lives in the local `s`;
the writer adds the steps it passes to it at once, checked against the
limit, only where a run can observe the count: before a call, a store to
a global or an array, a return, and at the end of a loop iteration.  In
between only the call's own locals change, so a run that reaches the
limit there raises StepLimit at the next such point, with the count left
at the limit; an error raised in between is charged the steps counted up
to it, or is a StepLimit if they reach the limit.  `st.steps` is stored
before, and read back after, every call and error.

A tree of `+`, `-`, `*` and unary `-` is computed on Python ints and
wrapped to 64 bits once, at its root: these are ring operations mod
2**64, so the wrap of the tree is the tree of the wraps.  The writer
bounds the bits such a value can take (64 for any other value, one more
for `+`, `-` and unary `-`, the sum of the operands' for `*`) and wraps
an operand where its operation would pass 256.  Every other reader takes
the value wrapped, and so does an operator that a mutant can swap for
`/` or `%`.  A type known where the code is written, a literal's, an
operator's or one a check has made, drops the checks it makes.  A loop
head keeps the type of each local that the back edge gives the type it
has on entry: the body is written from the types known on entry, and
again from those its back edge kept, until it keeps them all.  A call's
value has no type known, as a mutant can change it.

A test is one function per top-level statement of its body, so that a
test resumed part way through its body starts at one of them.  Each is
written as every other function is, with its count in `s` and slot k in
`vk`: it loads the slots it uses from the test's frame, a list, when it
starts, but for the one a top-level `let` binds before reading it, and
stores them back where it falls off its end; a return or an error ends
the test, so that leaves them.  The statements run in order, and a test
resumed at one of them starts from the frame the ones before it left, so
each starts with the types its locals had where the one before fell off.

Every function is written by `compile_schema`.  A mutated function is
written once with all its mutants in it (mutant schemata, Untch, Offutt
and Harrold, ISSTA 1993): a node that has alternatives becomes `if m ==
i: <alternative i> ... else: <the node>`, each with its own charges, and
a mutant's code only binds its index `m`.  Where an alternative swaps an
operator, negates a comparison or changes a literal, only that differs.
A function's own code is its schema with no alternatives.
"""

from __future__ import annotations

from typing import Callable, Optional

from .ast import (BUILTINS, ArrayLit, Assert, Assign, Binary, Block, BoolLit, Call, ExprStmt, FnRefLit, FunctionDef,
                  If, Index, IntLit, Let, Name, Return, Stmt, StrLit, Unary, While, per_node, walk)
from .values import INT_MAX, INT_MIN, UNIT, FnRef, contains_array, deep_equal, format_value, wrap64


# Control-flow signals, caught where an execution ends.
class RuntimeErr(Exception):
    def __init__(self, kind: str, node_id: int):
        self.kind = kind
        self.node_id = node_id


class AssertFail(Exception):
    def __init__(self, node_id: int):
        self.node_id = node_id


class StepLimit(Exception):
    """The step limit was reached; the count is left at the limit."""


class Code:
    """A compiled function: its arity, its number of frame slots and
    `body`, the Python function that runs it as `body(state, *args)`.  A
    test's code also has `stmts`, one function per top-level statement of
    its body, run in turn as `stmt(state, frame)` over a list of the
    call's slots, loading those it uses on entry and storing them back
    where it falls off: each returns None to go on, else the returned
    value.  A test run steps through them in `interp`, from any of them;
    `body` runs them when Mini code calls the test."""

    __slots__ = ("arity", "nslots", "body", "stmts")

    def __init__(self, arity: int, nslots: int, body, stmts: Optional[tuple] = None):
        self.arity = arity
        self.nslots = nslots
        self.body = body
        self.stmts = stmts


# -- what the generated code calls, with the count `n` a tree walk would
# have charged by then ---------------------------------------------------


def _limit(st) -> StepLimit:
    st.steps = st.limit
    return StepLimit()


def _charge(st, n: int) -> None:
    if n >= st.limit:
        raise _limit(st)
    st.steps = n


# Deterministic recursion bound: exceeding it is a runtime error (kind
# "stack_overflow"), so runaway-recursion mutants die identically on
# every run instead of exhausting the host stack.
MAX_CALL_DEPTH = 200


def _call(st, n: int, name: str, args: list, nid: int):
    """A call of declared function `name` from node `nid`.  The hooks see
    its entry, and may answer it with its value in place of the body (see
    `interp.Hooks`), and the exit of a call whose body ran.  The only code
    that runs the hooks and raises a call's arity and depth errors: a direct
    call written in a function's body calls the body itself only where
    none of them applies."""
    if n >= st.limit:
        raise _limit(st)
    st.steps = n
    code = st.code[name]
    if len(args) != code.arity:
        raise RuntimeErr("type_mismatch", nid)
    if st.depth >= MAX_CALL_DEPTH:
        raise RuntimeErr("stack_overflow", nid)
    hooks = st.hooks
    if hooks is not None:
        ret = hooks.on_call_enter(name, args, st)
        if ret is not None:
            return ret
    st.depth += 1
    ret = code.body(st, *args)
    st.depth -= 1
    if hooks is not None:
        hooks.on_call_exit(name, ret, st)
    return ret


def _builtin(st, n: int, name: str, args: list, nid: int):
    """A call of builtin `name` from node `nid`, where its errors are
    reported.  A direct `len` and `rand` of one argument and `push` of two
    are written inline; here they run only through a function reference or
    with another number of arguments."""
    if n >= st.limit:
        raise _limit(st)
    st.steps = n
    if name == "len":
        if len(args) != 1 or not isinstance(args[0], (list, str)):
            raise RuntimeErr("type_mismatch", nid)
        return len(args[0])
    if name == "push":
        if len(args) != 2 or not isinstance(args[0], list):
            raise RuntimeErr("type_mismatch", nid)
        arr, v = args
        if contains_array(v, arr):
            raise RuntimeErr("array_cycle", nid)
        arr.append(v)
        return UNIT
    if name == "print":
        if len(args) != 1:
            raise RuntimeErr("type_mismatch", nid)
        st.output.append(format_value(args[0]))
        return UNIT
    if name == "time_now":
        if args:
            raise RuntimeErr("type_mismatch", nid)
        return wrap64(st.clock())
    if name == "rand":
        if len(args) != 1 or type(args[0]) is not int or args[0] <= 0:
            raise RuntimeErr("type_mismatch", nid)
        return st.rng.randrange(args[0])
    raise RuntimeErr("type_mismatch", nid)


def _call_ref(st, n: int, target, args: list, nid: int):
    """A call through function reference `target`; a declared function hides a builtin."""
    if type(target) is not FnRef:
        raise _err(st, n, "type_mismatch", nid)
    if target.name in st.code:
        return _call(st, n, target.name, args, nid)
    return _builtin(st, n, target.name, args, nid)


def _err(st, n: int, kind: str, nid: int) -> Exception:
    """The error `kind` at node `nid`, or the StepLimit that comes first."""
    if n >= st.limit:
        return _limit(st)
    st.steps = n
    return RuntimeErr(kind, nid)


def _index_err(st, n: int, a, i, nid: int) -> Exception:
    return _err(st, n, "type_mismatch" if type(a) is not list or type(i) is not int else "index_oob", nid)


def _assert(st, n: int, c, nid: int) -> Exception:
    e = _err(st, n, "type_mismatch", nid)
    return AssertFail(nid) if c is False and type(e) is RuntimeErr else e


_NAMESPACE = {"U": UNIT, **{f.__name__: f for f in (wrap64, deep_equal, contains_array, _limit, _charge, _call,
                                                    _builtin, _call_ref, _err, _index_err, _assert)}}

# The static type of a value: a literal's, or an operation's result.
_LITERALS = {IntLit: "int", BoolLit: "bool", StrLit: "str"}
_SCALARS = ("int", "bool", "str")
_TESTS = ("<", "<=", ">", ">=", "==", "!=")
_WRAP = f"if not {INT_MIN} <= {{t}} <= {INT_MAX}: {{t}} = wrap64({{t}})"
# The ring operations mod 2**64, whose trees are wrapped once, at their
# root, while their values stay within this many bits.
_RING = ("+", "-", "*")
_WIDEST = 256


def _width(ops, a: int, b: int) -> int:
    """The bits that the result of any of `ops` on values of `a` and `b` bits takes."""
    return max(a + b if op == "*" else max(a, b) + 1 for op in ops)


# -- the writer: an expression is written as the code of its value, an atom
# (a local, a temporary `tk`, a literal) or, in parentheses, a pure
# expression over atoms that reads no array and cannot raise ---------------


class _Writer:
    def __init__(self, alternatives: dict):
        self.alternatives = alternatives  # id(node) -> [(index, new node or None)]
        self.switched = True  # alternatives apply here: not inside one
        self.refs: dict[str, FnRef] = {}
        self.constants: list[str] = []  # lines of `make(m)` that bind a mutant's constants
        self.known: dict[str, list[int]] = {}  # such a constant -> the values it can take
        self.temps = 0

    def begin(self, indent: int, direct: bool, types: dict) -> None:
        """Starts a function whose locals have `types` on entry; `direct`:
        its direct calls of declared functions call their bodies when no
        hooks run."""
        self.lines, self.indent, self.uses, self.live = [], indent, set(), True  # live: control gets here
        self.direct = direct
        self.wide: dict[str, int] = {}  # an unwrapped value's code -> the bits its magnitude takes at most
        self.set(0, True, types)

    def set(self, pending: int, checked: bool, types: dict) -> None:
        """The steps passed but not in the count yet, whether the count is
        below the limit, and the types names are known to have."""
        self.pending, self.checked, self.types = pending, checked, types

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def save(self) -> tuple:
        """What writing on changes, for `restore` to throw away."""
        state = self.temps, len(self.constants), dict(self.known), dict(self.refs), set(self.uses), dict(self.wide)
        return len(self.lines), *state

    def restore(self, saved: tuple) -> None:
        lines, self.temps, constants, self.known, self.refs, self.uses, self.wide = saved
        del self.lines[lines:], self.constants[constants:]

    def temp(self, code: Optional[str] = None, ty: Optional[str] = None) -> str:
        """A new temporary, assigned `code` of type `ty` if given."""
        self.temps += 1
        if code is not None:
            self.line(f"t{self.temps} = {code}")
            self.types[f"t{self.temps}"] = ty
        return f"t{self.temps}"

    def count(self) -> str:
        return f"s + {self.pending}" if self.pending else "s"

    def sync(self) -> None:
        """Adds the pending steps to the count and checks it against the limit."""
        if self.pending:
            self.line(f"s += {self.pending}")
            self.pending, self.checked = 0, False
        if not self.checked:
            self.uses.add("lim")
            self.line("if s >= lim: raise _limit(st)")
            self.checked = True

    def charge(self) -> None:
        """The count, checked, in `st.steps`, before a return or where a
        test's statement falls off.  Right after a call's `s = st.steps`
        it is there already."""
        if self.pending or not self.checked:
            self.line(f"_charge(st, {self.count()})")
        elif self.lines[-1:] != ["    " * self.indent + "s = st.steps"]:
            self.line("st.steps = s")
        self.set(0, True, self.types)

    def fail(self, cond: str, kind: str, nid: int) -> None:
        self.line(f"if {cond}: raise _err(st, {self.count()}, {kind!r}, {nid})")

    def acyclic(self, v: str, tv: Optional[str], a: str, nid: int) -> str:
        """`v`, of type `tv`, as an atom checked not to reach array `a`,
        which it is stored into, unless no value of its type holds an array."""
        if tv in (*_SCALARS, "unit", "ref"):
            return v
        v = self.name(v, tv)
        self.fail(f"type({v}) is list and contains_array({v}, {a})", "array_cycle", nid)
        return v

    def value(self, e) -> tuple[str, Optional[str]]:
        """`e`'s value as an atom, which can be read more than once."""
        code, ty = self.expr(e)
        return (self.temp(code, ty), ty) if code[0] == "(" else (code, ty or self.types.get(code))

    def operand(self, e, shared: bool) -> tuple[str, Optional[str]]:
        """`e`'s value as an operand of `+`, `-`, `*` or unary `-`, maybe
        unwrapped, and an atom where it is read more than once: by a type
        check or, if `shared`, by more than one alternative."""
        code, ty = self.ring(e)
        ty = ty or self.types.get(code)
        if code[0] == "(" and (shared or ty != "int"):
            wide, code = self.wide.get(code), self.temp(code, ty)
            if wide:
                self.wide[code] = wide
        return code, ty

    def wrap(self, code: str, ty: Optional[str]) -> tuple[str, Optional[str]]:
        """`code`, of type `ty`, in the 64-bit range: if it is unwrapped, as
        an atom that has been wrapped."""
        if code in self.wide:
            code = self.name(code, ty)
            self.line(_WRAP.format(t=code))
        return code, ty

    def local(self, slot: int, code: str, ty: Optional[str]) -> None:
        """Binds slot `slot` to `code`, of type `ty`, and wraps it there."""
        self.line(f"v{slot} = {code}")
        if code in self.wide:
            self.line(_WRAP.format(t=f"v{slot}"))
        self.types[f"v{slot}"] = ty

    def name(self, code: str, ty: Optional[str]) -> str:
        """`code` as a name, for `is` and subscripts, which take no literal."""
        return code if code.isidentifier() else self.temp(code, ty)

    def values(self, code: str) -> Optional[list[int]]:
        """The ints atom `code` can be, if it is a literal or a mutant's constant."""
        return [int(code)] if code.lstrip("-").isdigit() else self.known.get(code)

    def branches(self, heads: list[str], bodies: list[Callable]) -> None:
        """Writes each head and its body from the state here, and goes on where
        they join: at the least pending count of the live bodies, each of
        which adds the rest of its own, with the types they agree on."""
        start, ends = (self.pending, self.checked, self.types), []
        for head, body in zip(heads, bodies):
            self.line(head)
            self.indent += 1
            self.set(start[0], start[1], dict(start[2]))
            self.live, mark = True, len(self.lines)
            body()
            ends.append((mark, len(self.lines), self.indent, self.live, self.pending, self.checked, self.types))
            self.indent -= 1
        live = [end[4:] for end in ends if end[3]]
        self.live = bool(live)
        if live:
            pending = min(end[0] for end in live)
            types = {k: v for k, v in live[0][2].items() if all(end[2].get(k) == v for end in live)}
            self.set(pending, all(end[1] and end[0] == pending for end in live), types)
        for mark, stop, indent, alive, pending, _, _ in reversed(ends):
            if alive and pending > self.pending:
                self.lines.insert(stop, "    " * indent + f"s += {pending - self.pending}")
            elif mark == stop and stop == len(self.lines) and heads[-1] == "else:":
                del self.lines[mark - 1]  # an empty `else`
            elif mark == stop:
                self.lines.insert(stop, "    " * indent + "pass")

    def switch(self, node, write, alternatives) -> Optional[tuple]:
        """`write(node)`, or `write` of each of its `alternatives` behind a
        switch on `m`; an expression's value lands in one temporary."""
        if not alternatives:
            return write(node)
        result, types = None if isinstance(node, Stmt) else self.temp(), set()

        def branch(new, switched):
            def body():
                saved, self.switched = self.switched, switched
                if new is not None:
                    got = write(new)
                    if result is not None:
                        code, ty = self.wrap(*got)
                        self.line(f"{result} = {code}")
                        types.add(ty)
                self.switched = saved

            return body

        if all(new is None for _, new in alternatives):  # deletions
            unless = " and ".join(f"m != {index}" for index, _ in alternatives)
            return self.branches([f"if {unless}:", "else:"], [branch(node, True), lambda: None])
        heads = [f"{'el' * bool(i)}if m == {index}:" for i, (index, _) in enumerate(alternatives)]
        self.branches(heads + ["else:"], [branch(new, False) for _, new in alternatives] + [branch(node, True)])
        if result is not None:
            self.types[result] = types.pop() if len(types) == 1 else None
            return result, self.types[result]

    # -- statements -------------------------------------------------------

    def stmt(self, s) -> None:
        self.switch(s, self._stmt, self.switched and self.alternatives.get(id(s)))

    def _stmt(self, s) -> None:
        t = type(s)
        self.pending += 1
        if t is Block:
            for x in s.stmts:
                if self.live:
                    self.stmt(x)
        elif t is Let:
            self.local(s.slot, *self.ring(s.value))
        elif t is Assign:
            self._assign(s)
        elif t is If:
            c = self._cond(s.cond, s.node_id)
            self.branches([f"if {c}:", "else:"], [lambda: self.stmt(s.then), lambda: s.orelse and self.stmt(s.orelse)])
        elif t is While:
            # The head, where entry and back edge meet, with the count
            # checked and the types both agree on: the body is written from
            # the types known on entry, and again, from fewer, until its back
            # edge keeps every one it was written from.
            self.sync()
            head, saved = {k: v for k, v in self.types.items() if v}, self.save()
            while True:
                self.line("while True:")
                self.indent += 1
                self.set(0, True, dict(head))
                self.line(f"if not {self._cond(s.cond, s.node_id)}: break")
                after = self.pending, self.checked, dict(self.types)
                self.stmt(s.body)
                if self.live:
                    self.sync()
                    kept = {k: v for k, v in head.items() if self.types.get(k) == v}
                else:
                    kept = head
                self.indent, self.live = self.indent - 1, True
                if kept == head:
                    break
                self.restore(saved)
                head = kept
            self.set(*after)
        elif t is Return:
            code = "U" if s.value is None else self.expr(s.value)[0]
            self.charge()
            self.line(f"return {code}")
            self.live = False
        elif t is ExprStmt:
            self.ring(s.expr)
        elif t is Assert:
            c, ty = self.expr(s.cond)
            c = c if ty == "bool" else self.name(c, ty)
            test, arg = (f"not {c}", "False") if ty == "bool" else (f"{c} is not True", c)
            self.line(f"if {test}: raise _assert(st, {self.count()}, {arg}, {s.node_id})")
        else:
            raise TypeError(f"unknown statement: {s!r}")

    def _cond(self, e, nid: int) -> str:
        """The code of condition `e`, checked to be a bool."""
        c, ty = self.expr(e)
        if ty != "bool":
            c = self.name(c, ty)
            if self.types.get(c) != "bool":
                self.fail(f"{c} is not True and {c} is not False", "type_mismatch", nid)
                self.types[c] = "bool"
        return c

    def _assign(self, s: Assign) -> None:
        target = s.target
        if type(target) is Index:
            v, tv = self.value(s.value)
            self.pending += 1
            a, i = self._index(target)
            v = self.acyclic(v, tv, a, target.node_id)
            self.sync()
            self.line(f"{a}[{i}] = {v}")
            return
        v, ty = self.ring(s.value)
        self.pending += 1
        if target.is_global:
            v = self.wrap(v, ty)[0]
            self.sync()
            self.uses.add("g")
            self.line(f"g[{target.ident!r}] = {v}")
        else:
            self.local(target.slot, v, ty)

    # -- expressions ------------------------------------------------------

    def expr(self, e) -> tuple[str, Optional[str]]:
        """`e`'s value in the 64-bit range."""
        return self.wrap(*self.ring(e))

    def ring(self, e) -> tuple[str, Optional[str]]:
        """`e`'s value, which a tree of `+`, `-`, `*` and unary `-` leaves
        unwrapped: a pure expression in `wide`, equal to its value mod
        2**64.  These wrap once, at the root, as they are ring operations."""
        alternatives = self.switched and self.alternatives.get(id(e))
        if alternatives and type(e) is Binary and e.op != "&&" and e.op != "||":
            swaps = [(i, n) for i, n in alternatives if type(n) is Binary and n.left is e.left and n.right is e.right]
            negations = [i for i, n in alternatives if type(n) is Unary and n.operand is e]
            if len(swaps) + len(negations) == len(alternatives) and (not negations or e.op in _TESTS):
                # A negated comparison (UOI_NEG) charges the `!` before the
                # comparison's own steps, and its value is a bool.
                for index in negations:
                    self.line(f"if m == {index}: s += 1")
                    self.checked = False
                code, ty = self._binary(e, swaps)
                for index in negations:
                    code = f"({code} != (m == {index}))"  # negated for mutant `index`
                return code, ty
        if alternatives and type(e) is IntLit and all(type(n) is IntLit for _, n in alternatives):
            # A constant per mutant: `make(m)` binds it once.
            self.pending += 1
            name, code = f"c{len(self.constants)}", repr(e.value)
            for index, n in reversed(alternatives):
                code = f"{n.value!r} if m == {index} else {code}"
            self.constants.append(f"{name} = {code}")
            self.known[name] = [e.value] + [n.value for _, n in alternatives]
            return name, "int"
        return self.switch(e, self._expr, alternatives)

    def _expr(self, e) -> tuple[str, Optional[str]]:
        t = type(e)
        if t is Binary:
            return self._binary(e, ())
        self.pending += 1
        if t in _LITERALS:
            return repr(e.value), _LITERALS[t]
        if t is Name:
            if e.is_global:
                self.uses.add("g")
                return self.temp(f"g[{e.ident!r}]"), None
            return f"v{e.slot}", None
        if t is Call:
            return self._call(e)
        if t is Unary and e.op == "!":
            return f"(not {self._cond(e.operand, e.node_id)})", "bool"
        if t is Unary:
            a, ta = self.operand(e.operand, False)
            if a.lstrip("-").isdigit():  # a literal
                return repr(wrap64(-int(a))), "int"
            if ta != "int":
                self.fail(f"type({a}) is not int", "type_mismatch", e.node_id)
                self.types[a] = "int"
            wide = self.wide.get(a, 64) + 1
            if wide > _WIDEST:
                a, wide = self.wrap(a, "int")[0], 65
            code = f"(-{a})"
            self.wide[code] = wide
            return code, "int"
        if t is Index:
            return self.temp("{}[{}]".format(*self._index(e))), None
        if t is ArrayLit:
            return f"([{', '.join(self.expr(x)[0] for x in e.items)}])", "list"
        if t is FnRefLit:
            self.refs[f"r{len(self.refs)}"] = FnRef(e.name)
            return f"r{len(self.refs) - 1}", "ref"
        raise TypeError(f"unknown expression: {e!r}")

    def _index(self, e: Index) -> tuple[str, str]:
        """The array and index of `e`, checked to be an array and an int within it."""
        a, ta = self.value(e.array)
        a = self.name(a, ta)
        i, ti = self.value(e.index)
        conds = [f"type({a}) is not list"] * (ta != "list") + [f"type({i}) is not int"] * (ti != "int")
        conds.append(f"not 0 <= {i} < len({a})")
        self.line(f"if {' or '.join(conds)}: raise _index_err(st, {self.count()}, {a}, {i}, {e.node_id})")
        self.types[a], self.types[i] = "list", "int"
        return a, i

    def _binary(self, e: Binary, swaps) -> tuple[str, Optional[str]]:
        """Operator `e`, or each of the `swaps` behind a switch on `m`, on
        operands evaluated once: AOR and ROR keep an operator's group
        (arithmetic, order or equality), so its checks are made once too."""
        op, nid = e.op, e.node_id
        self.pending += 1
        if op == "&&" or op == "||":
            a, r = self._cond(e.left, nid), self.temp()
            decisive = op == "||"  # the left value that decides the result
            self.branches(
                [f"if {'' if decisive else 'not '}{a}:", "else:"],
                [lambda: self.line(f"{r} = {decisive}"), lambda: self.line(f"{r} = {self._cond(e.right, nid)}")],
            )
            return r, "bool"
        ops = [n.op for _, n in swaps] + [op]
        ring = all(o in _RING for o in ops)  # else the operands are wrapped
        if ring:
            (a, ta), (b, tb) = self.operand(e.left, bool(swaps)), self.operand(e.right, bool(swaps))
        else:
            (a, ta), (b, tb) = self.value(e.left), self.value(e.right)
        if op == "==" or op == "!=":
            codes, ty = [self._equality(o, a, ta, b, tb) for o in ops], "bool"
        else:
            checks = [x for x, t in ((a, ta), (b, tb)) if t != "int"]
            if checks:
                self.fail(" or ".join(f"type({x}) is not int" for x in checks), "type_mismatch", nid)
                self.types.update(dict.fromkeys(checks, "int"))
            if ring:
                wide = _width(ops, self.wide.get(a, 64), self.wide.get(b, 64))
                if wide > _WIDEST:
                    (a, _), (b, _) = self.wrap(a, "int"), self.wrap(b, "int")
                    wide = _width(ops, 64, 64)
            codes, ty = [self._operate(o, a, b) for o in ops], "bool" if op in _TESTS else "int"
        values = self.values(b)
        nonzero = values is not None and 0 not in values
        zero = [o in ("/", "%") and not nonzero for o in ops]
        heads = [f"{'el' * bool(i)}if m == {index}:" for i, (index, _) in enumerate(swaps)] + ["else:"]
        if not any(zero):
            code = codes[-1]
            for head, alternative in zip(reversed(heads[:-1]), reversed(codes[:-1])):
                code = f"({alternative} {head[head.index('if'):-1]} else {code})"
        elif not swaps:
            self.fail(f"{b} == 0", "div_by_zero", nid)
            code = codes[0]
        else:
            code = self.temp()

            def apply(k):
                def body():
                    if zero[k]:
                        self.fail(f"{b} == 0", "div_by_zero", nid)
                    self.line(f"{code} = {codes[k]}")

                return body

            self.branches(heads, [apply(k) for k in range(len(ops))])
        if ring:
            self.wide[code] = wide
            return code, ty
        if "deep_equal" in code:  # it reads arrays, so it is evaluated here
            return self.temp(code, ty), ty
        # `%` never leaves the 64-bit range, nor `/` by a literal other than -1.
        if ty == "int" and any(o in "+-*" or o == "/" and (not nonzero or -1 in values) for o in ops):
            r = code if code[0] != "(" else self.temp(code, "int")
            self.line(_WRAP.format(t=r))
            return r, "int"
        return code, ty

    def _operate(self, op: str, a: str, b: str) -> str:
        """The code of `op` on the ints `a` and `b`, which is not 0 for `/` and `%`."""
        if op not in ("/", "%"):
            return f"({a} {op} {b})"
        # Truncating toward zero: by the quotient's sign, or, for `%`, the dividend's.
        values = self.values(b)
        same = f"{a} >= 0" if values and min(values) > 0 else f"({a} < 0) == ({b} < 0)"
        if op == "/":
            return f"({a} // {b} if {same} else -(-{a} // {b}))"
        return f"({a} % {b} if {same} else {a} % -{b})"

    def _equality(self, op: str, a: str, ta, b: str, tb) -> str:
        """The code of `==` or `!=` on the atoms `a` and `b`."""
        for ty, other in (ta, b), (tb, a):
            if ty in _SCALARS:
                if ta == tb:
                    return f"({a} {op} {b})"
                if op == "==":
                    return f"(type({other}) is {ty} and {a} == {b})"
                return f"(type({other}) is not {ty} or {a} != {b})"
        return f"({'' if op == '==' else 'not '}deep_equal({a}, {b}))"

    def _call(self, e: Call) -> tuple[str, Optional[str]]:
        typed, nid = [self.expr(a) for a in e.args], e.node_id
        args = [code for code, _ in typed]
        argv, ty = f"[{', '.join(args)}]", BUILTINS.get(e.name) if e.is_builtin else None
        if e.is_builtin and e.name == "len" and len(args) == 1:
            # Inline: the count goes on as through any pure operation.
            a = self.name(args[0], None)
            self.fail(f"type({a}) is not list and type({a}) is not str", "type_mismatch", nid)
            return self.temp(f"len({a})", ty), ty
        if e.is_builtin and e.name == "push" and len(args) == 2:
            # Inline: a store to the array, checked as `_builtin` checks it.
            (a, ta), (v, tv) = ((code, t or self.types.get(code)) for code, t in typed)
            a = self.name(a, ta)
            if ta != "list":
                self.fail(f"type({a}) is not list", "type_mismatch", nid)
                self.types[a] = "list"
            v = self.acyclic(v, tv, a, nid)
            self.sync()
            self.line(f"{a}.append({v})")
            return "U", ty
        if e.is_builtin and e.name == "rand" and len(args) == 1:
            # Inline: checked as `_builtin` checks it, where it can fail,
            # then drawn with the count in `st.steps`.
            n, tn = typed[0]
            values = self.values(n)
            if values is None:
                n, tn = self.name(n, tn), tn or self.types.get(n)
            if values is None or min(values) <= 0:
                self.fail(f"{n} <= 0" if tn == "int" else f"type({n}) is not int or {n} <= 0", "type_mismatch", nid)
            self.sync()
            self.line("st.steps = s")
            return self.temp(f"st.rng.randrange({n})", ty), ty
        if e.callee is None and not e.is_builtin and self.direct:
            # The body is called here when `_call` would only call it: no
            # hooks, room for one more frame and the arity it was written with.
            self.sync()
            r = self.temp()
            self.line(f"c = st.code[{e.name!r}]")
            self.line(f"if st.hooks is None and st.depth < {MAX_CALL_DEPTH} and c.arity == {len(args)}:")
            self.line("    st.steps = s")
            self.line("    st.depth += 1")
            self.line(f"    {r} = c.body({', '.join(['st', *args])})")
            self.line("    st.depth -= 1")
            self.line("else:")
            self.line(f"    {r} = _call(st, s, {e.name!r}, {argv}, {nid})")
        else:
            if e.callee is not None:
                target = self.value(e.callee)[0]  # after the arguments
                call = f"_call_ref(st, {self.count()}, {target}, {argv}, {nid})"
            else:
                call = f"{'_builtin' if e.is_builtin else '_call'}(st, {self.count()}, {e.name!r}, {argv}, {nid})"
            r = self.temp(call, ty)
        self.set(0, True, self.types)
        self.line("s = st.steps")
        return r, ty


def _function(w: _Writer, head: str, node, indent: int, types: Optional[dict] = None) -> list[str]:
    """The source of function `head`, which runs `node` and returns U where
    it falls off; or, for a test's statement `node`, whose locals have
    `types` on entry, loads the slots it uses from the test's frame, the
    list `fr`, and stores them back and returns None where it falls off."""
    stmt = types is not None
    w.begin(indent + 1, not stmt, dict(types or {}))
    w.stmt(node)
    # Every slot a statement reads or binds is stored back, and loaded, as a
    # binding in a loop may not run; but a top-level `let` binds its slot
    # first, unless its value reads it.
    used = sorted({n.slot for n in walk(node) if type(n) is Let or type(n) is Name and not n.is_global} if stmt else ())
    bound = type(node) is Let and not any(type(n) is Name and n.slot == node.slot for n in walk(node.value))
    loaded = [k for k in used if not (bound and k == node.slot)]

    def pairs(slots):  # the locals of `slots` and their cells in the frame
        return ", ".join(f"v{k}" for k in slots), ", ".join(f"fr[{k}]" for k in slots)

    if w.live:
        w.charge()
        if not stmt:
            w.line("return U")
        elif used:
            here, there = pairs(used)
            w.line(f"{there} = {here}")
    here, there = pairs(loaded)
    prologue = ["s = st.steps", *[f"{here} = {there}"] * bool(loaded)]
    prologue += [f"{name} = st.{attr}" for name, attr in (("lim", "limit"), ("g", "globals")) if name in w.uses]
    return ["    " * indent + head, *("    " * (indent + 1) + line for line in prologue), *w.lines]


def _exec(fn: FunctionDef, lines: list[str], refs: dict) -> dict:
    ns = {**_NAMESPACE, **refs}
    exec(compile("\n".join(lines) + "\n", f"<mini {fn.name}>", "exec"), ns)
    return ns


def compile_schema(fn: FunctionDef, alternatives: dict) -> Callable[[int], Code]:
    """`code(i)`, the code of `fn` with the alternatives of index `i` in
    place, from one compile.  `alternatives` maps the `id` of each node of
    `fn` that has any to its (index, new node) pairs, None deleting a
    statement."""
    w = _Writer(alternatives)
    head = f"def f({', '.join(['st'] + [f'v{k}' for k in range(len(fn.params))])}):"
    body = _function(w, head, fn.body, 1)
    make = _exec(fn, ["def make(m):", *("    " + c for c in w.constants), *body, "    return f"], w.refs)["make"]
    arity, nslots = len(fn.params), fn.nslots
    return lambda index: Code(arity, nslots, make(index))


def compile_test(fn: FunctionDef) -> Code:
    """The code of test `fn`: its statements, each compiled on its own,
    run in turn by `body`, for Mini code that calls the test, after the
    body block's own step."""
    w, lines, types = _Writer({}), [], {}
    for i, s in enumerate(fn.body.stmts):
        lines += _function(w, f"def s{i}(st, fr):", s, 0, types)
        # The statements run in order, and a resumed test starts at one of
        # them with the frame the ones before it left: the next starts with
        # the types its locals have where this one falls off.
        types = {k: v for k, v in w.types.items() if v and k[0] == "v"} if w.live else {}
    ns = _exec(fn, lines, w.refs)
    stmts, nslots = tuple(ns[f"s{i}"] for i in range(len(fn.body.stmts))), fn.nslots

    def body(st, *args):
        _charge(st, st.steps + 1)
        frame = [*args] + [None] * (nslots - len(args))
        for stmt in stmts:
            ret = stmt(st, frame)
            if ret is not None:
                return ret
        return UNIT

    return Code(len(fn.params), nslots, body, stmts)


def compile_function(fn: FunctionDef) -> Code:
    """The code of `fn`: its schema with no alternatives."""
    return compile_schema(fn, {})(0)


# The code of a function or a test of the program, compiled on first use.
compiled = per_node(compile_function)
compiled_test = per_node(compile_test)
