"""Independent oracles the main implementations are checked against.

Deliberately written with different algorithms and data structures than
the package code: per-node BFS instead of the set-propagation fixpoint,
a pattern-matching mutant enumerator instead of the generator, each
mutant built as an AST, its function deep-copied with the rewrite
spliced in, instead of bound from its function's mutant schema, an
exhaustive run-everything mutant runner instead of the covering-tests
engine, a memo run that starts every test of every mutant afresh instead
of resuming from shared prefixes, a probe per (mutated function, test)
instead of one probe per test for all its mutated functions, a
run-per-candidate recorder instead of one run per covering test, a
run-per-table provisional filter instead of one shared run per covering
test, and a minimal step-counting evaluator for profiler arithmetic.

Every run of a test here draws the test's own `rand` stream and clock,
`Runtime.rng_for(test)` and `Runtime.clock_for(test)`, as every stage of
the pipeline does, so an oracle draws what the code it checks draws.

`call` and `run_function` call one function, for the tests that check a
function alone rather than a test.
"""

from __future__ import annotations

import copy
from collections import deque

from memomut.lang import ast as A
from memomut.lang.compiler import AssertFail, RuntimeErr, StepLimit, _call
from memomut.lang.interp import (DEFAULT_STEP_LIMIT, PASS, STEP_LIMIT_VERDICT, ExecState, Hooks, Runtime, Verdict,
                                 run_test)
from memomut.lang.values import UNIT
from memomut.memo.builder import KINDS, LookupHooks, RecordHooks
from memomut.memo.db import Exclusion, MemoDB, MemoTable
from memomut.memo.encoding import program_fingerprint
from memomut.mutation import MutantPool, _mutations
from memomut.profiler import Candidate, ExpensivenessCriterion, Profile


def bfs_closure(nodes, edge_pairs) -> dict[str, set[str]]:
    """Reflexive reachability by breadth-first search from every node."""
    succ: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edge_pairs:
        succ[a].add(b)
    out = {}
    for start in nodes:
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in succ.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        out[start] = seen
    return out


_ARITH = {"+", "-", "*", "/", "%"}
_ORDER = {"<", "<=", ">", ">="}
_EQ = {"==", "!="}
_DEFAULTS = {
    "int": lambda e: type(e) is A.IntLit and e.value == 0,
    "bool": lambda e: type(e) is A.BoolLit and e.value is False,
    "str": lambda e: type(e) is A.StrLit and e.value == "",
    "arr": lambda e: type(e) is A.ArrayLit and not e.items,
}


def _static_type(e):
    if type(e) is A.IntLit:
        return "int"
    if type(e) is A.BoolLit:
        return "bool"
    if type(e) is A.StrLit:
        return "str"
    if type(e) is A.ArrayLit:
        return "arr"
    if type(e) is A.FnRefLit:
        return "fnref"
    if type(e) is A.Unary:
        return "int" if e.op == "-" else "bool"
    if type(e) is A.Binary:
        return "int" if e.op in _ARITH else "bool"
    if type(e) is A.Call and e.is_builtin and e.name in ("len", "rand", "time_now"):
        return "int"
    return None


def enumerate_mutants(program) -> set[tuple[str, int, str, int]]:
    """All (fn, node_id, operator, variant) mutation opportunities."""
    found: set[tuple[str, int, str, int]] = set()
    for name, fn in program.functions.items():
        if name in program.tests:
            continue
        for node in A.walk(fn.body):
            nid = node.node_id
            if type(node) is A.Binary:
                if node.op in _ARITH:
                    found.add((name, nid, "AOR", 0))
                if node.op in _ORDER:
                    found.add((name, nid, "ROR", 0))
                    found.add((name, nid, "ROR", 1))
                if node.op in _EQ:
                    found.add((name, nid, "ROR", 0))
                if node.op in ("&&", "||"):
                    found.add((name, nid, "LCR", 0))
            if type(node) in (A.If, A.While):
                found.add((name, nid, "UOI_NEG", 0))
            if type(node) is A.Return and node.value is not None:
                ty = _static_type(node.value)
                if ty in _DEFAULTS and not _DEFAULTS[ty](node.value):
                    found.add((name, nid, "RVM", 0))
            if type(node) is A.IntLit:
                found.add((name, nid, "CRP", 0))
            if type(node) is A.Unary and node.op == "-":
                found.add((name, nid, "AOD", 0))
            if type(node) is A.Assign:
                found.add((name, nid, "SVR", 0))
    return found


def mutated_program(program, m):
    """The program with mutant `m` built as an AST, the slow way: deep-copy
    its whole function, find the node by searching every node, and splice
    in the rewrite `_mutations` gives for `m`'s operator and variant."""
    fn = copy.deepcopy(program.functions[m.fn])
    path = []

    def search(node):
        path.append(node)
        if node.node_id == m.node_id or any(search(c) for c in A.children(node)):
            return True
        path.pop()
        return False

    assert search(fn.body), m
    node = path[-1]
    [(old, new)] = [(old, new) for op, variant, old, new in _mutations(node, fn.max_node_id + 1)
                    if op is m.op and variant == m.variant]
    parent = path[-2] if old is node else node  # UOI_NEG rewrites the node's condition
    fields = vars(parent)
    for name, value in fields.items():
        if value is old:
            fields[name] = new
        elif type(value) is list:
            for i, item in enumerate(value):
                if item is old:
                    value[i:i + 1] = [] if new is None else [new]  # None deletes a statement
                    break
    return A.Program(globals=program.globals, functions={**program.functions, m.fn: fn}, tests=program.tests)


def exhaustive_killed(
    program, pool: MutantPool, profile: Profile, runtime: Runtime, factor: int = 10
) -> set[int]:
    """Killed-set running every test against every mutant, no shortcuts."""
    killed: set[int] = set()
    for m in pool.mutants:
        mutated = mutated_program(program, m)
        for test in sorted(program.tests):
            limit = profile.tests[test].steps * factor + 1000
            outcome, _ = run_test(
                mutated,
                test,
                None,
                step_limit=limit,
                rng=runtime.rng_for(test),
                clock=runtime.clock_for(test),
            )
            if not outcome.verdict.passed:
                killed.add(m.id)
    return killed


def memo_run_unshared(program, pool: MutantPool, profile: Profile, closure, db, runtime: Runtime) -> dict:
    """Each mutant's (status, killing_test, cause, tests_run, steps,
    per_method) in a memo run that runs every test of every mutant from
    a fresh state, on the mutant's whole program compiled anew."""
    tables = db.tables if db is not None and db.tables else None
    out = {}
    for m in pool.mutants:
        tests = profile.covering_passing_tests(m.fn)
        if not tests:
            out[m.id] = ("not_covered", None, None, 0, 0, {})
            continue
        hooks = None
        if tables is not None:
            blocked = frozenset(fn for fn in tables if fn == m.fn or m.fn in closure.get(fn, ()))
            hooks = LookupHooks(tables, blocked=blocked)
        mutated = mutated_program(program, m)
        status, killing_test, cause, tests_run, steps = "survived", None, None, 0, 0
        for test in tests:
            outcome, _ = run_test(
                mutated,
                test,
                hooks,
                step_limit=profile.step_budget(test),
                rng=runtime.rng_for(test),
                clock=runtime.clock_for(test),
            )
            tests_run += 1
            steps += outcome.steps
            if not outcome.verdict.passed:
                status, killing_test, cause = "killed", test, outcome.verdict.kind
                break
        out[m.id] = (status, killing_test, cause, tests_run, steps, {} if hooks is None else hooks.per_method)
    return out


class _PrefixEnd(Exception):
    """Raised where a mutant's run of a test could first differ from the program's."""


class _ProbeHooks(Hooks):
    """Ends a run at the first entry into `fn` or a function of `tables`,
    direct or through a reference, or, as the run's `rand` stream and
    clock, at the first draw."""

    def __init__(self, fn, tables):
        self.fn = fn
        self.tables = tables

    def on_call_enter(self, fn, args, state):
        if fn == self.fn or fn in self.tables:
            raise _PrefixEnd()

    def randrange(self, n):
        raise _PrefixEnd()

    def __call__(self):
        raise _PrefixEnd()


def probe_per_function(program, fn: str, test: str, tables, limit: int):
    """The prefix of `test` that the memo run shares among the mutants of
    `fn`, or None.

    It runs `test` on the unmutated program, looking nothing up, up to
    the top-level statement of the test's body in which the test first
    enters `fn` or a function that holds a memo table, or calls `rand` or
    `time_now`.  Up to that statement a mutant of `fn` runs the same code
    on the same state, draws nothing and looks nothing up, so it can
    start there.  There is no prefix if that is the first statement, or
    if the test returns, fails or hits a limit before it.
    """
    kept = []
    try:
        probe = _ProbeHooks(fn, set(tables or ()))
        run_test(program, test, probe, limit, rng=probe, clock=probe, keep=kept.append)
    except _PrefixEnd:
        if kept and kept[-1].index > 0:
            return kept[-1]
    return None


def record_per_candidate(
    program,
    bundle,
    candidates: list[Candidate],
    profile: Profile,
    criterion: ExpensivenessCriterion,
    runtime: Runtime,
) -> MemoDB:
    """Raw memo-tables database recorded by running every candidate's
    covering tests once for that candidate alone."""
    db = MemoDB(
        fingerprint=program_fingerprint(program),
        tau=criterion.tau,
        tau_unit=criterion.tau_unit,
        limit_value=criterion.limit_value,
        limit_is_pct=criterion.limit_is_pct,
    )
    effects = bundle.effects
    for cand in candidates:
        fn = cand.fn
        table = MemoTable(
            fn=fn,
            may_read=sorted(effects.reads.get(fn, ())),
            may_write=sorted(effects.writes.get(fn, ())),
            mut_args=sorted(effects.mut_args.get(fn, ())),
        )
        conflicted = False
        for test in cand.covering_tests:
            hooks = RecordHooks({fn: table})
            run_test(
                program,
                test,
                hooks,
                step_limit=profile.step_budget(test),
                rng=runtime.rng_for(test),
                clock=runtime.clock_for(test),
            )
            conflicted = conflicted or bool(hooks.conflicted)
            table.recorded_from.add(test)
        if conflicted:
            db.exclusions[fn] = Exclusion(reason="conflicted")
        else:
            db.tables[fn] = table
    return db


def provisional_per_table(
    program, raw: MemoDB, profile: Profile, runtime: Runtime
) -> tuple[MemoDB, dict[str, dict[str, int]]]:
    """Provisional filtering that checks every table alone: its covering
    tests run in name order with only its look-ups enabled, until one
    regresses.  Returns the final database and each table's counts."""
    final = MemoDB(
        fingerprint=raw.fingerprint,
        tau=raw.tau,
        tau_unit=raw.tau_unit,
        limit_value=raw.limit_value,
        limit_is_pct=raw.limit_is_pct,
        exclusions=dict(raw.exclusions),
    )
    per_method: dict[str, dict[str, int]] = {}
    for fn in sorted(raw.tables):
        table = raw.tables[fn]
        hooks = LookupHooks({fn: table})
        failed_test = None
        for test in sorted(table.recorded_from):
            baseline = profile.tests[test]
            outcome, state = run_test(
                program,
                test,
                hooks,
                step_limit=profile.step_budget(test),
                rng=runtime.rng_for(test),
                clock=runtime.clock_for(test),
            )
            if outcome.verdict != baseline.verdict or state.output != baseline.output:
                failed_test = test
                break
        counts = per_method[fn] = hooks.per_method.get(fn, dict.fromkeys(KINDS, 0))
        if failed_test is not None:
            final.exclusions[fn] = Exclusion(reason="new_test_failure", detail=failed_test)
        elif counts["misses"]:
            final.exclusions[fn] = Exclusion(
                reason="cache_miss_on_covering_test", detail=str(counts["misses"])
            )
        else:
            final.tables[fn] = table
    return final, per_method


class _Halt(Exception):
    def __init__(self, value):
        self.value = value


def count_body_steps(program, fn_name: str, args: list) -> int:
    """Steps a direct call spends inside `fn_name`'s body.

    A tiny evaluator for the deterministic integer subset of the
    language (no globals, no calls, no arrays), counting one step per
    node like the real interpreter but implemented independently.
    """
    fn = program.functions[fn_name]
    env = dict(zip(fn.params, args))
    counter = [0]

    def expr(e):
        counter[0] += 1
        t = type(e)
        if t is A.IntLit:
            return e.value
        if t is A.BoolLit:
            return e.value
        if t is A.Name:
            return env[e.ident]
        if t is A.Unary:
            v = expr(e.operand)
            return -v if e.op == "-" else not v
        if t is A.Binary:
            lhs = expr(e.left)
            rhs = expr(e.right)
            return {
                "+": lambda: lhs + rhs,
                "-": lambda: lhs - rhs,
                "*": lambda: lhs * rhs,
                "<": lambda: lhs < rhs,
                "<=": lambda: lhs <= rhs,
                ">": lambda: lhs > rhs,
                ">=": lambda: lhs >= rhs,
                "==": lambda: lhs == rhs,
                "!=": lambda: lhs != rhs,
            }[e.op]()
        raise NotImplementedError(type(e).__name__)

    def block(b):
        counter[0] += 1
        for st in b.stmts:
            stmt(st)

    def stmt(s):
        counter[0] += 1
        t = type(s)
        if t is A.Let:
            env[s.name] = expr(s.value)
        elif t is A.Assign:
            value = expr(s.value)
            counter[0] += 1  # target node
            env[s.target.ident] = value
        elif t is A.While:
            while expr(s.cond):
                block(s.body)
        elif t is A.If:
            if expr(s.cond):
                block(s.then)
            elif s.orelse is not None:
                block(s.orelse)
        elif t is A.Return:
            raise _Halt(None if s.value is None else expr(s.value))
        else:
            raise NotImplementedError(type(s).__name__)

    try:
        block(fn.body)
    except _Halt:
        pass
    return counter[0]


class MiniExecutionError(Exception):
    """Raised by run_function when the callee does not complete normally."""

    def __init__(self, verdict: Verdict):
        super().__init__(verdict)
        self.verdict = verdict


def call(state: ExecState, fn: str, args: list):
    """(verdict, value) of calling `fn` on `state`; the value is unit
    unless the call returns."""
    try:
        return PASS, _call(state, state.steps, fn, args, -1)
    except AssertFail as a:
        return Verdict("assert_fail", node_id=a.node_id), UNIT
    except RuntimeErr as r:
        return Verdict("runtime_error", node_id=r.node_id, error=r.kind), UNIT
    except StepLimit:
        return STEP_LIMIT_VERDICT, UNIT


def run_function(program, fn: str, args: list, rng=None, clock=None, code=None):
    """(value, state) of calling `fn` from a fresh state, with no hooks, on
    `code` if given, else the program's code; a call that does not return
    raises MiniExecutionError."""
    state = ExecState(program, None, DEFAULT_STEP_LIMIT, rng, clock, code)
    verdict, ret = call(state, fn, args)
    if not verdict.passed:
        raise MiniExecutionError(verdict)
    return ret, state
