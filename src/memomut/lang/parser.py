"""Lexer, recursive-descent parser, and name resolver for Mini source."""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .ast import (
    PRECEDENCE,
    ArrayLit,
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FnRefLit,
    FunctionDef,
    If,
    Index,
    IntLit,
    Let,
    Name,
    Program,
    Return,
    Stmt,
    StrLit,
    Unary,
    While,
)


class MiniSyntaxError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ResolutionError(Exception):
    def __init__(self, name: str, detail: str = "undeclared name"):
        super().__init__(f"{detail}: {name}")
        self.name = name


KEYWORDS = {"fn", "global", "let", "if", "else", "while", "return", "assert", "true", "false"}

_TWO_CHAR = {"==", "!=", "<=", ">=", "&&", "||"}
_ONE_CHAR = set("+-*/%<>!=&(){}[],;")


@dataclass
class Token:
    kind: str  # "int" | "str" | "ident" | "kw" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(Token("int", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            toks.append(Token("kw" if text in KEYWORDS else "ident", text, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                ch = source[j]
                if ch == "\n":
                    raise MiniSyntaxError(start_line, start_col, "unterminated string")
                if ch == "\\":
                    if j + 1 >= n:
                        raise MiniSyntaxError(start_line, start_col, "bad escape")
                    nxt = source[j + 1]
                    mapped = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(nxt)
                    if mapped is None:
                        raise MiniSyntaxError(line, col, f"bad escape \\{nxt}")
                    buf.append(mapped)
                    j += 2
                else:
                    buf.append(ch)
                    j += 1
            if j >= n:
                raise MiniSyntaxError(start_line, start_col, "unterminated string")
            toks.append(Token("str", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR:
            toks.append(Token("op", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            toks.append(Token("op", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise MiniSyntaxError(line, col, f"unexpected character {c!r}")
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str) -> MiniSyntaxError:
        t = self.peek()
        return MiniSyntaxError(t.line, t.col, message)

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise self.error(f"expected {op!r}, found {t.text!r}")
        return self.next()

    def expect_kw(self, kw: str) -> Token:
        t = self.peek()
        if t.kind != "kw" or t.text != kw:
            raise self.error(f"expected {kw!r}, found {t.text!r}")
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(f"expected identifier, found {t.text!r}")
        return self.next().text

    def at_op(self, op: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == op

    def at_kw(self, kw: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == kw

    def comma_list(self, item, close: str) -> list:
        """Items parsed by `item`, separated by commas, up to and past `close`."""
        items = []
        if not self.at_op(close):
            items.append(item())
            while self.at_op(","):
                self.next()
                items.append(item())
        self.expect_op(close)
        return items

    # -- top level ----------------------------------------------------------

    def program(self) -> Program:
        globals_: list[tuple[str, object]] = []
        functions: dict[str, FunctionDef] = {}
        while self.peek().kind != "eof":
            if self.at_kw("global"):
                self.next()
                name = self.expect_ident()
                if any(g == name for g, _ in globals_):
                    raise self.error(f"duplicate global {name!r}")
                self.expect_op("=")
                value = self.literal()
                self.expect_op(";")
                globals_.append((name, value))
            elif self.at_kw("fn"):
                fn = self.function()
                if fn.name in functions:
                    raise self.error(f"duplicate function {fn.name!r}")
                functions[fn.name] = fn
            else:
                raise self.error("expected 'fn' or 'global'")
        tests = [
            f.name
            for f in functions.values()
            if f.name.startswith("test_") and not f.params
        ]
        for f in functions.values():
            if f.name.startswith("test_") and f.params:
                raise MiniSyntaxError(1, 1, f"test function {f.name!r} must take no parameters")
        return Program(globals=globals_, functions=functions, tests=tests)

    def literal(self):
        t = self.peek()
        neg = False
        if t.kind == "op" and t.text == "-":
            self.next()
            neg = True
            t = self.peek()
        if t.kind == "int":
            self.next()
            v = int(t.text)
            return -v if neg else v
        if neg:
            raise self.error("expected integer after '-'")
        if t.kind == "str":
            self.next()
            return t.text
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return t.text == "true"
        raise self.error("global initializers must be literals")

    def function(self) -> FunctionDef:
        self.expect_kw("fn")
        name = self.expect_ident()
        self.expect_op("(")
        params = self.comma_list(self.expect_ident, ")")
        if len(set(params)) != len(params):
            raise self.error(f"duplicate parameter in {name!r}")
        body = self.block()
        return FunctionDef(name=name, params=params, body=body)

    # -- statements ---------------------------------------------------------

    def block(self) -> Block:
        self.expect_op("{")
        stmts: list[Stmt] = []
        while not self.at_op("}"):
            stmts.append(self.statement())
        self.expect_op("}")
        return Block(stmts=stmts)

    def statement(self) -> Stmt:
        if self.at_kw("let"):
            self.next()
            name = self.expect_ident()
            self.expect_op("=")
            value = self.expr()
            self.expect_op(";")
            return Let(name=name, value=value)
        if self.at_kw("if"):
            self.next()
            self.expect_op("(")
            cond = self.expr()
            self.expect_op(")")
            then = self.block()
            orelse = None
            if self.at_kw("else"):
                self.next()
                orelse = self.block()
            return If(cond=cond, then=then, orelse=orelse)
        if self.at_kw("while"):
            self.next()
            self.expect_op("(")
            cond = self.expr()
            self.expect_op(")")
            body = self.block()
            return While(cond=cond, body=body)
        if self.at_kw("return"):
            self.next()
            if self.at_op(";"):
                self.next()
                return Return(value=None)
            value = self.expr()
            self.expect_op(";")
            return Return(value=value)
        if self.at_kw("assert"):
            self.next()
            self.expect_op("(")
            cond = self.expr()
            self.expect_op(")")
            self.expect_op(";")
            return Assert(cond=cond)
        e = self.expr()
        if self.at_op("="):
            if not isinstance(e, (Name, Index)):
                raise self.error("invalid assignment target")
            self.next()
            value = self.expr()
            self.expect_op(";")
            return Assign(target=e, value=value)
        self.expect_op(";")
        return ExprStmt(expr=e)

    # -- expressions --------------------------------------------------------

    def expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over the printer's table: an operator binds
        what follows it up to the next operator of its level or looser, so
        operators of one level group to the left."""
        left = self.unary_expr()
        while True:
            t = self.peek()
            prec = PRECEDENCE.get(t.text, 0) if t.kind == "op" else 0
            if prec < min_prec:
                return left
            self.next()
            left = Binary(op=t.text, left=left, right=self.expr(prec + 1))

    def unary_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text in ("-", "!"):
            self.next()
            return Unary(op=t.text, operand=self.unary_expr())
        return self.postfix_expr()

    def postfix_expr(self) -> Expr:
        e = self.primary()
        while True:
            if self.at_op("("):
                self.next()
                e = Call(callee=e, name=None, args=self.comma_list(self.expr, ")"))
            elif self.at_op("["):
                self.next()
                idx = self.expr()
                self.expect_op("]")
                e = Index(array=e, index=idx)
            else:
                return e

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(value=int(t.text))
        if t.kind == "str":
            self.next()
            return StrLit(value=t.text)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(value=t.text == "true")
        if t.kind == "ident":
            self.next()
            return Name(ident=t.text)
        if t.kind == "op" and t.text == "&":
            self.next()
            return FnRefLit(name=self.expect_ident())
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "op" and t.text == "[":
            self.next()
            return ArrayLit(items=self.comma_list(self.expr, "]"))
        raise self.error(f"unexpected token {t.text!r}")


class _Resolver:
    """Binds names: marks globals, resolves call targets, checks declarations.

    It is the one owner of lexical scope: each parameter and `let` gets
    the next slot of its function's frame, and each local `Name` records
    the slot of the declaration it refers to.
    """

    def __init__(self, program: Program):
        self.program = program
        self.global_names = {g for g, _ in program.globals}
        self.nslots = 0

    def run(self) -> None:
        for fn in self.program.functions.values():
            scopes: list[dict[str, int]] = [{p: i for i, p in enumerate(fn.params)}]
            self.nslots = len(fn.params)
            self.resolve_block(fn.body, scopes)
            fn.nslots = self.nslots

    def _slot(self, name: str, scopes) -> int | None:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def resolve_block(self, block: Block, scopes) -> None:
        scopes.append({})
        for st in block.stmts:
            self.resolve_stmt(st, scopes)
        scopes.pop()

    def resolve_stmt(self, st: Stmt, scopes) -> None:
        t = type(st)
        if t is Let:
            self.resolve_expr(st.value, scopes)
            if st.name in scopes[-1]:
                raise ResolutionError(st.name, "duplicate let in the same scope")
            st.slot = scopes[-1][st.name] = self.nslots
            self.nslots += 1
        elif t is Assign:
            self.resolve_expr(st.value, scopes)
            self.resolve_expr(st.target, scopes)
        elif t is If:
            self.resolve_expr(st.cond, scopes)
            self.resolve_block(st.then, scopes)
            if st.orelse is not None:
                self.resolve_block(st.orelse, scopes)
        elif t is While:
            self.resolve_expr(st.cond, scopes)
            self.resolve_block(st.body, scopes)
        elif t is Return:
            if st.value is not None:
                self.resolve_expr(st.value, scopes)
        elif t is ExprStmt:
            self.resolve_expr(st.expr, scopes)
        elif t is Assert:
            self.resolve_expr(st.cond, scopes)
        else:
            raise TypeError(f"unknown statement: {st!r}")

    def resolve_expr(self, e: Expr, scopes) -> None:
        t = type(e)
        if t is Name:
            slot = self._slot(e.ident, scopes)
            if slot is not None:
                e.is_global, e.slot = False, slot
            elif e.ident in self.global_names:
                e.is_global = True
            else:
                raise ResolutionError(e.ident)
        elif t is FnRefLit:
            if e.name not in self.program.functions and e.name not in ast.BUILTINS:
                raise ResolutionError(e.name)
        elif t is Call:
            callee = e.callee
            if isinstance(callee, Name) and self._slot(callee.ident, scopes) is None and callee.ident not in self.global_names:
                # Syntactically direct call: the target must be declared.
                name = callee.ident
                if name in self.program.functions:
                    e.callee, e.name = None, name
                elif name in ast.BUILTINS:
                    e.callee, e.name, e.is_builtin = None, name, True
                else:
                    raise ResolutionError(name)
            else:
                self.resolve_expr(callee, scopes)
            for a in e.args:
                self.resolve_expr(a, scopes)
        elif t in (IntLit, BoolLit, StrLit):
            pass
        elif t is ArrayLit:
            for x in e.items:
                self.resolve_expr(x, scopes)
        elif t is Unary:
            self.resolve_expr(e.operand, scopes)
        elif t is Binary:
            self.resolve_expr(e.left, scopes)
            self.resolve_expr(e.right, scopes)
        elif t is Index:
            self.resolve_expr(e.array, scopes)
            self.resolve_expr(e.index, scopes)
        else:
            raise TypeError(f"unknown expression: {e!r}")


def parse(source: str) -> Program:
    """Parse, resolve, and number Mini source into a Program."""
    program = _Parser(tokenize(source)).program()
    _Resolver(program).run()
    for fn in program.functions.values():
        ast.number_nodes(fn)
    return program
