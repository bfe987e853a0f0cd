"""Static analyses over a Mini program.

Covers four results that feed the memoization pipeline: a 0-CFA call
graph, its reflexive-transitive dependency closure, a may-read/may-write
side-effect summary, and a determinacy report flagging functions whose
behavior can depend on time, randomness, or I/O.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .lang.ast import BUILTINS, ArrayLit, Assign, Call, FnRefLit, Index, Let, Name, Program, Return, walk

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
    """0-CFA over flow classes.  Each function's flow-moving nodes are
    listed once, in preorder; every pass of the fixpoint runs over those
    lists, and `flow` reads what an expression may evaluate to."""

    def __init__(self, program: Program):
        self.functions = program.functions
        self.sets: dict[tuple, set[str]] = defaultdict(set)
        self.nodes = {
            f: [n for n in walk(fn.body) if type(n) in (Let, Assign, Return, ArrayLit, Call)]
            for f, fn in program.functions.items()
        }

    def _var(self, fn: str, name: Name) -> tuple:
        return ("g", name.ident) if name.is_global else ("v", fn, name.ident)

    def callees(self, fn: str, call: Call) -> frozenset[str]:
        return frozenset({call.name} if call.callee is None else self.flow(fn, call.callee))

    def flow(self, fn: str, e) -> set[str]:
        """The function names `e`, in `fn`, may evaluate to."""
        t = type(e)
        if t is FnRefLit:
            return {e.name}
        if t is Name:
            return self.sets[self._var(fn, e)]
        if t is Index:
            return self.sets[_CELLS]
        if t is Call:
            return set().union(*(self.sets[("ret", g)] for g in self.callees(fn, e) if g in self.functions))
        return set()

    def run(self) -> None:
        sets, flow = self.sets, self.flow
        changed = True
        while changed:
            before = sum(map(len, sets.values()))
            for fn, nodes in self.nodes.items():
                for n in nodes:
                    t = type(n)
                    if t is Let:
                        sets[("v", fn, n.name)] |= flow(fn, n.value)
                    elif t is Assign:
                        target = n.target
                        sets[self._var(fn, target) if type(target) is Name else _CELLS] |= flow(fn, n.value)
                    elif t is Return:
                        if n.value is not None:
                            sets[("ret", fn)] |= flow(fn, n.value)
                    elif t is ArrayLit:
                        for item in n.items:
                            sets[_CELLS] |= flow(fn, item)
                    else:
                        for g in self.callees(fn, n):
                            if g in self.functions:
                                for p, a in zip(self.functions[g].params, n.args):
                                    sets[("v", g, p)] |= flow(fn, a)
                            elif g == "push" and len(n.args) > 1:
                                sets[_CELLS] |= flow(fn, n.args[1])
            changed = sum(map(len, sets.values())) != before

    def resolution(self) -> dict[tuple[str, int], frozenset[str]]:
        return {
            (fn, n.node_id): self.callees(fn, n)
            for fn, nodes in self.nodes.items()
            for n in nodes
            if type(n) is Call
        }


def build_call_graph(program: Program) -> CallGraph:
    """0-CFA call graph: direct sites syntactically, indirect by flow fixpoint."""
    cfa = _Cfa(program)
    cfa.run()
    resolution = cfa.resolution()
    nodes = set(program.functions) | set(BUILTINS)
    edges: set[tuple[str, int, str]] = set()
    warnings: list[str] = []
    for (caller, site), callees in resolution.items():
        valid = {c for c in callees if c in nodes}
        if not valid:
            warnings.append(f"indirect call in {caller} at node {site} resolves to no targets")
        for c in valid:
            edges.add((caller, site, c))
    return CallGraph(nodes=nodes, edges=edges, resolution=resolution, warnings=warnings)


def dependency_closure(cg: CallGraph) -> dict[str, set[str]]:
    """Reflexive-transitive callee-reachability, one set per node."""
    succ: dict[str, set[str]] = {n: set() for n in cg.nodes}
    for caller, _, callee in cg.edges:
        succ.setdefault(caller, set()).add(callee)
    closure = {}
    for n in succ:
        seen, todo = {n}, [n]
        while todo:
            for g in succ.get(todo.pop(), ()):
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
        closure[n] = seen
    return closure


def _roots(expr, aliases: dict[str, set]) -> set:
    """The roots whose array an expression may be or lie inside: parameter
    positions (ints) and global names (strs)."""
    t = type(expr)
    if t is Index:
        return _roots(expr.array, aliases)
    if t is Name:
        return {expr.ident} if expr.is_global else aliases.get(expr.ident, set())
    return set()


def analyze_side_effects(program: Program, cg: CallGraph, closure: dict[str, set[str]]) -> SideEffectSummary:
    """May-read/may-write globals, closed over `closure`, and mutated-arg positions.

    A store mutates its target's roots, and so does an argument at a
    position its callee mutates.  A mutated parameter position is in
    `mut_args`, a mutated global in `writes`.  Locals alias the roots of
    every name or index load bound to them by `let` or assignment.
    """
    # Each function's own reads and writes; the summary closes them over `closure`.
    reads: dict[str, set[str]] = {n: set() for n in cg.nodes}
    writes: dict[str, set[str]] = {n: set() for n in cg.nodes}
    # The roots each function mutates, itself or through its callees.
    mutated: dict[str, set] = {n: set() for n in cg.nodes}
    mutated["push"] = {0}
    # (caller, callee, per-argument roots) for the argument-position pass.
    call_sites: list[tuple[str, str, list[set]]] = []

    for fn in program.functions.values():
        f = fn.name
        binds, stores, calls = [], [], []
        target = None  # a bare-name assignment target is a write, not a read
        for node in walk(fn.body):
            t = type(node)
            if t is Name and node.is_global and node is not target:
                reads[f].add(node.ident)
            elif t is Let:
                binds.append((node.name, node.value))
            elif t is Assign:
                target = node.target
                if type(target) is Index:
                    stores.append(target)
                elif target.is_global:
                    writes[f].add(target.ident)
                else:
                    binds.append((target.ident, node.value))
            elif t is Call:
                calls.append(node)
        aliases: dict[str, set] = {p: {i} for i, p in enumerate(fn.params)}
        binds = [(name, value) for name, value in binds if type(value) in (Name, Index)]
        grown = True
        while grown:
            size = sum(map(len, aliases.values()))
            for name, value in binds:
                aliases.setdefault(name, set()).update(_roots(value, aliases))
            grown = sum(map(len, aliases.values())) != size
        for store in stores:
            mutated[f] |= _roots(store, aliases)
        for call in calls:
            roots = [_roots(a, aliases) for a in call.args]
            for g in cg.resolution.get((f, call.node_id), ()):
                call_sites.append((f, g, roots))

    changed = True
    while changed:
        changed = False
        for caller, callee, roots in call_sites:
            for k in list(mutated.get(callee, ())):
                if type(k) is int and k < len(roots) and not roots[k] <= mutated[caller]:
                    mutated[caller] |= roots[k]
                    changed = True
    for f, roots in mutated.items():
        writes[f] |= {r for r in roots if type(r) is str}
    return SideEffectSummary(
        reads={f: set().union(*(reads[g] for g in closure[f])) for f in cg.nodes},
        writes={f: set().union(*(writes[g] for g in closure[f])) for f in cg.nodes},
        mut_args={f: {r for r in roots if type(r) is int} for f, roots in mutated.items()},
    )


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
    effects = analyze_side_effects(program, cg, closure)
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
