"""Static analyses over a Mini program.

Covers four results that feed the memoization pipeline: a 0-CFA call
graph, its reflexive-transitive dependency closure, a may-read/may-write
side-effect summary, and a determinacy report flagging functions whose
behavior can depend on time, randomness, or I/O.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .lang.ast import (
    ArrayLit,
    Assert,
    Assign,
    BUILTINS,
    Binary,
    Block,
    Call,
    ExprStmt,
    FnRefLit,
    If,
    Index,
    IntLit,
    BoolLit,
    StrLit,
    Let,
    Name,
    Program,
    Return,
    Unary,
    While,
    walk,
)

NONDET_BUILTINS = {"time_now": "calls_time", "rand": "calls_rand", "print": "performs_io"}

# Abstract flow classes for 0-CFA: one per named variable, one per
# global, one return class per function, and a single shared class for
# all array cells.
_CELLS = ("cells",)


@dataclass
class CallGraph:
    nodes: set[str]
    edges: set[tuple[str, int, str]]  # (caller, call-site node id, callee)
    resolution: dict[tuple[str, int], frozenset[str]]  # (caller, site) -> callees
    warnings: list[str] = field(default_factory=list)

    def callees(self, fn: str) -> set[str]:
        return {c for caller, _, c in self.edges if caller == fn}

    def edge_pairs(self) -> list[tuple[str, str]]:
        return sorted({(a, c) for a, _, c in self.edges})


@dataclass
class SideEffectSummary:
    reads: dict[str, set[str]]
    writes: dict[str, set[str]]
    mut_args: dict[str, set[int]]


@dataclass
class DeterminacyReport:
    nondeterministic: set[str]
    reasons: dict[str, str]


@dataclass
class AnalysisBundle:
    call_graph: CallGraph
    closure: dict[str, set[str]]
    effects: SideEffectSummary
    determinacy: DeterminacyReport


class _Cfa:
    def __init__(self, program: Program):
        self.program = program
        self.sets: dict[tuple, set[str]] = defaultdict(set)
        self.resolution: dict[tuple[str, int], frozenset[str]] = {}

    def _var(self, fn: str, name: str, is_global: bool) -> tuple:
        return ("g", name) if is_global else ("v", fn, name)

    def run(self) -> None:
        changed = True
        while changed:
            before = sum(len(s) for s in self.sets.values())
            for fn in self.program.functions.values():
                self._flow_block(fn.name, fn.body)
            changed = sum(len(s) for s in self.sets.values()) != before

    def _flow_block(self, fn: str, block: Block) -> None:
        for st in block.stmts:
            self._flow_stmt(fn, st)

    def _flow_stmt(self, fn: str, st) -> None:
        t = type(st)
        if t is Let:
            self.sets[("v", fn, st.name)] |= self._flow_expr(fn, st.value)
        elif t is Assign:
            flow = self._flow_expr(fn, st.value)
            target = st.target
            if type(target) is Name:
                self.sets[self._var(fn, target.ident, target.is_global)] |= flow
            else:
                self._flow_expr(fn, target.array)
                self._flow_expr(fn, target.index)
                self.sets[_CELLS] |= flow
        elif t is If:
            self._flow_expr(fn, st.cond)
            self._flow_block(fn, st.then)
            if st.orelse is not None:
                self._flow_block(fn, st.orelse)
        elif t is While:
            self._flow_expr(fn, st.cond)
            self._flow_block(fn, st.body)
        elif t is Return:
            if st.value is not None:
                self.sets[("ret", fn)] |= self._flow_expr(fn, st.value)
        elif t is ExprStmt:
            self._flow_expr(fn, st.expr)
        elif t is Assert:
            self._flow_expr(fn, st.cond)

    def _flow_expr(self, fn: str, e) -> set[str]:
        t = type(e)
        if t is FnRefLit:
            return {e.name}
        if t is Name:
            return self.sets[self._var(fn, e.ident, e.is_global)]
        if t is Index:
            self._flow_expr(fn, e.array)
            self._flow_expr(fn, e.index)
            return self.sets[_CELLS]
        if t is ArrayLit:
            for item in e.items:
                self.sets[_CELLS] |= self._flow_expr(fn, item)
            return set()
        if t is Call:
            return self._flow_call(fn, e)
        if t is Unary:
            self._flow_expr(fn, e.operand)
            return set()
        if t is Binary:
            self._flow_expr(fn, e.left)
            self._flow_expr(fn, e.right)
            return set()
        return set()  # literals

    def _flow_call(self, fn: str, call: Call) -> set[str]:
        if call.callee is None:
            callees = {call.name}
        else:
            callees = set(self._flow_expr(fn, call.callee))
        arg_flows = [self._flow_expr(fn, a) for a in call.args]
        result: set[str] = set()
        for g in sorted(callees):
            if g in self.program.functions:
                target = self.program.functions[g]
                for p, flow in zip(target.params, arg_flows):
                    self.sets[("v", g, p)] |= flow
                result |= self.sets[("ret", g)]
            elif g == "push" and len(arg_flows) > 1:
                self.sets[_CELLS] |= arg_flows[1]
        self.resolution[(fn, call.node_id)] = frozenset(callees)
        return result


def build_call_graph(program: Program) -> CallGraph:
    """0-CFA call graph: direct sites syntactically, indirect by flow fixpoint."""
    cfa = _Cfa(program)
    cfa.run()
    nodes = set(program.functions) | set(BUILTINS)
    edges: set[tuple[str, int, str]] = set()
    warnings: list[str] = []
    for (caller, site), callees in cfa.resolution.items():
        valid = {c for c in callees if c in nodes}
        if not valid:
            warnings.append(f"indirect call in {caller} at node {site} resolves to no targets")
        for c in valid:
            edges.add((caller, site, c))
    return CallGraph(nodes=nodes, edges=edges, resolution=dict(cfa.resolution), warnings=warnings)


def dependency_closure(cg: CallGraph) -> dict[str, set[str]]:
    """Reflexive-transitive callee-reachability, one set per node."""
    succ: dict[str, set[str]] = {n: set() for n in cg.nodes}
    for caller, _, callee in cg.edges:
        succ.setdefault(caller, set()).add(callee)
    closure = {n: {n} for n in succ}
    changed = True
    while changed:
        changed = False
        for n, out in succ.items():
            cur = closure[n]
            before = len(cur)
            for g in out:
                cur |= closure.get(g, {g})
            if len(cur) != before:
                changed = True
    return closure


def _root_positions(expr, aliases: dict[str, set[int]]) -> set[int]:
    """Parameter positions an lvalue expression may be rooted at."""
    if type(expr) is Name and not expr.is_global:
        return aliases.get(expr.ident, set())
    if type(expr) is Index:
        return _root_positions(expr.array, aliases)
    return set()


def analyze_side_effects(program: Program, cg: CallGraph) -> SideEffectSummary:
    """Transitively-closed may-read/may-write globals and mutated-arg positions."""
    reads: dict[str, set[str]] = {n: set() for n in cg.nodes}
    writes: dict[str, set[str]] = {n: set() for n in cg.nodes}
    mut_args: dict[str, set[int]] = {n: set() for n in cg.nodes}
    mut_args["push"] = {0}

    # (caller, callee, per-argument root positions) for the propagation pass.
    call_sites: list[tuple[str, str, list[set[int]]]] = []

    for fn in program.functions.values():
        aliases: dict[str, set[int]] = {p: {i} for i, p in enumerate(fn.params)}
        # Alias pass: locals bound directly to a parameter track its position.
        for node in walk(fn.body):
            if type(node) is Let and type(node.value) is Name and not node.value.is_global:
                src = aliases.get(node.value.ident)
                if src:
                    aliases[node.name] = set(src)
        # Bare-name assignment targets are writes, not reads.
        write_targets = {
            id(node.target)
            for node in walk(fn.body)
            if type(node) is Assign and type(node.target) is Name
        }
        for node in walk(fn.body):
            t = type(node)
            if t is Name and node.is_global and id(node) not in write_targets:
                reads[fn.name].add(node.ident)
            elif t is Assign:
                target = node.target
                if type(target) is Name and target.is_global:
                    writes[fn.name].add(target.ident)
                elif type(target) is Index:
                    mut_args[fn.name] |= _root_positions(target, aliases)
            elif t is Call:
                callees = cg.resolution.get((fn.name, node.node_id), frozenset())
                roots = [_root_positions(a, aliases) for a in node.args]
                for g in callees:
                    call_sites.append((fn.name, g, roots))

    changed = True
    while changed:
        changed = False
        for caller, callee, roots in call_sites:
            if callee not in reads:
                continue
            for acc_caller, acc_callee in ((reads[caller], reads[callee]), (writes[caller], writes[callee])):
                if not acc_callee <= acc_caller:
                    acc_caller |= acc_callee
                    changed = True
            for k in mut_args.get(callee, ()):
                if k < len(roots):
                    new = roots[k] - mut_args[caller]
                    if new:
                        mut_args[caller] |= new
                        changed = True
    return SideEffectSummary(reads=reads, writes=writes, mut_args=mut_args)


def analyze_determinacy(
    program: Program,
    cg: CallGraph,
    effects: SideEffectSummary,
    time_rand_only: bool = False,
) -> DeterminacyReport:
    """Least fixpoint of the nondeterminism rules.

    (i) calling time_now/rand (and print) taints a function directly;
    (ii) calling a tainted function taints the caller; (iii) reading a
    global that a tainted function may write taints the reader.  The
    print axiom and rule (iii) are the conservative extensions;
    `time_rand_only` switches both off for fidelity runs.
    """
    reasons: dict[str, str] = {}
    for b, why in NONDET_BUILTINS.items():
        if b == "print" and time_rand_only:
            continue
        reasons[b] = why

    callees = {n: sorted(cg.callees(n)) for n in cg.nodes}
    fns = sorted(program.functions)
    changed = True
    while changed:
        changed = False
        for f in fns:
            if f in reasons:
                continue
            reason = None
            for g in callees[f]:
                if g in NONDET_BUILTINS and g in reasons:
                    reason = reasons[g]
                    break
            if reason is None:
                for g in callees[f]:
                    if g in reasons and g in program.functions:
                        reason = f"transitive_via:{g}"
                        break
            if reason is None and not time_rand_only:
                for g in sorted(effects.reads.get(f, ())):
                    if any(h in reasons and g in effects.writes.get(h, ()) for h in cg.nodes):
                        reason = f"tainted_global:{g}"
                        break
            if reason is not None:
                reasons[f] = reason
                changed = True
    return DeterminacyReport(nondeterministic=set(reasons), reasons=reasons)


def analyze_program(program: Program, time_rand_only: bool = False) -> AnalysisBundle:
    """Run the full analysis pipeline.

    With `time_rand_only` the determinacy analysis is restricted to
    direct time/randomness propagation through calls (no print axiom, no
    global-taint rule).
    """
    cg = build_call_graph(program)
    closure = dependency_closure(cg)
    effects = analyze_side_effects(program, cg)
    det = analyze_determinacy(
        program,
        cg,
        effects,
        time_rand_only=time_rand_only,
    )
    return AnalysisBundle(call_graph=cg, closure=closure, effects=effects, determinacy=det)


def bundle_to_json(bundle: AnalysisBundle) -> dict:
    """Bit-stable JSON document (all lists sorted)."""
    return {
        "call_graph": [[a, b] for a, b in bundle.call_graph.edge_pairs()],
        "closure": {f: sorted(s) for f, s in sorted(bundle.closure.items())},
        "nondet": dict(sorted(bundle.determinacy.reasons.items())),
        "effects": {
            f: {
                "reads": sorted(bundle.effects.reads[f]),
                "writes": sorted(bundle.effects.writes[f]),
                "mutargs": sorted(bundle.effects.mut_args[f]),
            }
            for f in sorted(bundle.effects.reads)
        },
        "warnings": sorted(bundle.call_graph.warnings),
    }
