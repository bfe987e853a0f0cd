"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every criterion also asserts, so the suite fails loudly.
"""

import copy
import random
import statistics

from memomut.lang.interp import ExecState, Hooks, Runtime, run_test
from memomut.lang.parser import parse
from memomut.lang.values import deep_copy, deep_equal
from memomut.memo.builder import LookupHooks, provisional_memoization
from memomut.memo.db import CorruptDB, SchemaVersionMismatch, db_from_bytes, db_to_bytes
from memomut.memo.encoding import Reader
from memomut.analysis import CallGraph, dependency_closure
from memomut.profiler import cost_breakdown, profile_suite
from memomut.runner import RunConfig, run_mutation_analysis

from conftest import cached_pipeline
from oracles import bfs_closure, call, enumerate_mutants, exhaustive_killed

CORPUS = [
    "sample",
    "fib",
    "matrix",
    "strings",
    "globals",
    "indirect",
    "randarg",
    "printcase",
    "nondet",
    "bench_expensive",
]

def _report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {n:2d} ({label}): {status}{suffix}")
    assert ok, f"criterion {n} ({label}) failed {suffix}"


def _run(pipe, memo, **kw):
    return run_mutation_analysis(
        pipe.program,
        pipe.pool,
        pipe.profile,
        pipe.bundle.closure,
        db=pipe.db if memo else None,
        cfg=RunConfig(memo=memo, **kw),
        runtime=pipe.runtime,
    )


def _verdict_vector(report):
    return [(r.mutant_id, r.status, r.killing_test, r.cause) for r in report.results]


def test_criterion_01_lossless_scoring():
    bad = []
    for name in CORPUS:
        pipe = cached_pipeline(name)
        base = _run(pipe, memo=False)
        memo = _run(pipe, memo=True)
        if _verdict_vector(base) != _verdict_vector(memo) or base.score != memo.score:
            bad.append(name)
    _report(1, "lossless scoring", not bad, f"{len(CORPUS)} programs" if not bad else str(bad))


def test_criterion_02_designed_benchmark_speedup():
    # A step threshold: the kernels average 3000+ steps per call, every
    # helper 10 or fewer, on any machine and at any interpreter speed.
    pipe = cached_pipeline("bench_expensive", tau=1000, tau_unit="steps", limit_value=20.0)
    base_walls, memo_walls = [], []
    base_steps = memo_steps = None
    for _ in range(3):
        base = _run(pipe, memo=False)
        memo = _run(pipe, memo=True)
        base_walls.append(base.wall_ns)
        memo_walls.append(memo.wall_ns)
        base_steps, memo_steps = base.totals["steps"], memo.totals["steps"]
        assert base.score == memo.score
    wall_saving = 1 - statistics.median(memo_walls) / statistics.median(base_walls)
    step_saving = 1 - memo_steps / base_steps
    ok = wall_saving >= 0.15 and step_saving >= 0.25
    _report(
        2,
        "benchmark speed-up",
        ok,
        f"wall {wall_saving * 100:.1f}% >= 15%, steps {step_saving * 100:.1f}% >= 25%",
    )


def test_criterion_03_cost_breakdown():
    shares = []
    for _ in range(2):
        program = cached_pipeline("bench_expensive").program
        prof = profile_suite(program, runtime=Runtime(seed=0, fake_time=True))
        shares.append(cost_breakdown(prof, 0.2)[2])
    single = profile_suite(parse("fn test_only(){ assert(1 == 1); }"))
    _, _, single_share = cost_breakdown(single, 1.0)
    # Shares come from step counts, so repeated profiles agree exactly.
    ok = all(s >= 0.40 for s in shares) and shares[0] == shares[1] and single_share == 1.0
    _report(
        3,
        "cost breakdown",
        ok,
        f"bench shares {shares[0]:.3f}/{shares[1]:.3f} >= 0.40, single-fn {single_share:.1f}",
    )


def test_criterion_04_failure_exclusion():
    pipe = cached_pipeline("printcase", time_rand_only=True)
    excl = pipe.db.exclusions.get("noisy_scale")
    ok = (
        excl is not None
        and excl.reason == "new_test_failure"
        and "noisy_scale" not in pipe.db.tables
    )
    # No failure-excluded function appears in any final database.
    for name in CORPUS:
        p = cached_pipeline(name)
        for fn, e in p.db.exclusions.items():
            if e.reason == "new_test_failure" and fn in p.db.tables:
                ok = False
    _report(4, "failure exclusion", ok, f"noisy_scale -> {excl.reason if excl else 'missing'}")


def test_criterion_05_cache_miss_exclusion():
    # Every run of a test draws one stream, so a miss comes only from a
    # fault; inject one, a table that lost one of its recorded entries.
    pipe = cached_pipeline("randarg")
    raw = copy.deepcopy(pipe.raw)
    entries = raw.tables["digit_energy"].entries
    del entries[next(iter(entries))]
    db, _ = provisional_memoization(
        pipe.program, raw, pipe.profile, pipe.bundle.closure, runtime=pipe.runtime
    )
    excl = db.exclusions.get("digit_energy")
    ok = excl is not None and excl.reason == "cache_miss_on_covering_test"
    # Every retained table shows 0 misses on a fresh unmutated re-run.
    checked = 0
    for name in CORPUS:
        p = cached_pipeline(name)
        for fn, table in p.db.tables.items():
            hooks = LookupHooks({fn: table})
            for test in sorted(table.recorded_from):
                run_test(
                    p.program,
                    test,
                    hooks,
                    rng=p.runtime.rng_for(test),
                    clock=p.runtime.clock_for(test),
                )
            if hooks.count_totals()["misses"]:
                ok = False
            checked += 1
    _report(5, "cache-miss exclusion", ok, f"{checked} retained tables at 0 misses")


class _ExtentWatch(Hooks):
    """Flags nondeterministic builtins firing inside memoized functions:
    a draw from the `rand` stream `rng` or a reading of `clock`, which it
    hands the run in their place, and output printed while a memoized
    function is on the stack."""

    def __init__(self, memoized, rng, clock):
        self.memoized = memoized
        self.rng = rng
        self.clock = clock
        self.depth = 0
        self.printed = 0  # the output's length where the outermost memoized call began
        self.violations = []

    def randrange(self, n):
        self._drawn("rand")
        return self.rng.randrange(n)

    def __call__(self):
        self._drawn("time_now")
        return self.clock()

    def _drawn(self, name):
        if self.depth > 0:
            self.violations.append((name, self.depth))

    def on_call_enter(self, fn, args, state):
        if fn in self.memoized:
            if self.depth == 0:
                self.printed = len(state.output)
            self.depth += 1
        return None

    def on_call_exit(self, fn, ret, state):
        if fn in self.memoized:
            self.depth -= 1
            if self.depth == 0:
                self.ended(state)

    def ended(self, state):
        """Flags output printed since the outermost memoized call began;
        called where it returns, or where a run ends inside it."""
        if len(state.output) > self.printed:
            self.violations.append(("print", len(state.output) - self.printed))


def _extent_violations(program, memoized, runtime) -> list:
    """What `_ExtentWatch` flags over every test of `program`."""
    violations = []
    for test in program.tests:
        watch = _ExtentWatch(memoized, runtime.rng_for(f"extent:{test}"), runtime.clock_for(f"extent:{test}"))
        _, state = run_test(program, test, watch, rng=watch, clock=watch)
        if watch.depth > 0:
            watch.ended(state)
        violations += [(test, *v) for v in watch.violations]
    return violations


def test_criterion_06_determinacy_exclusion():
    ok = True
    detail = []
    for name in CORPUS:
        pipe = cached_pipeline(name)
        nondet = pipe.bundle.determinacy.nondeterministic
        for cand in pipe.candidates:
            if cand.fn in nondet:
                ok = False
                detail.append(f"{name}:{cand.fn} static")
        violations = _extent_violations(pipe.program, set(pipe.db.tables), pipe.runtime)
        if violations:
            ok = False
            detail.append(f"{name}:{violations}")
    _report(6, "determinacy exclusion", ok, "; ".join(detail) or "no nondet in any extent")


def test_criterion_06_watch_flags_planted_violations():
    """The extent watch of criterion 06 flags each nondeterministic
    builtin inside a memoized function, also where the run ends inside
    it, and nothing outside one."""
    program = parse("""
        fn roll() { return rand(6); }
        fn now() { return time_now(); }
        fn say(x) { print(x); return x; }
        fn say_then_fail(x) { print(x); return x / 0; }
        fn quiet(x) { return x + 1; }
        fn test_draws() { print(quiet(roll())); print(now() > 0); assert(say(1) == 1); }
        fn test_ends_inside() { say_then_fail(2); }
    """)
    runtime = Runtime(seed=0, fake_time=True)
    memoized = {"roll", "now", "say", "say_then_fail", "quiet"}
    assert sorted(_extent_violations(program, memoized, runtime)) == [
        ("test_draws", "print", 1),
        ("test_draws", "rand", 1),
        ("test_draws", "time_now", 1),
        ("test_ends_inside", "print", 1),
    ]
    assert _extent_violations(program, {"quiet"}, runtime) == []


def test_criterion_07_skip_gate_soundness():
    ok = True
    bypasses = 0
    for name in CORPUS:
        pipe = cached_pipeline(name)
        memo = _run(pipe, memo=True)
        closure = pipe.bundle.closure
        for r in memo.results:
            mutant_fn = pipe.pool.mutants[r.mutant_id].fn
            for fn, counts in r.per_method.items():
                if counts["hits"]:  # this mutant's runs bypassed fn
                    bypasses += counts["hits"]
                    if fn == mutant_fn or mutant_fn in closure[fn]:
                        ok = False
    _report(7, "skip-gate soundness", ok, f"{bypasses} bypasses, 0 unsound")


def test_criterion_08_oracle_equivalences():
    rng = random.Random(1234)
    names = [f"n{i}" for i in range(50)]
    closure_ok = True
    for _ in range(100):
        edges = {
            (a, 0, b) for a in names for b in names if a != b and rng.random() < 0.1
        }
        cg = CallGraph(nodes=set(names), edges=edges, resolution={})
        if dependency_closure(cg) != bfs_closure(names, cg.edge_pairs()):
            closure_ok = False
    mutants_ok = True
    killed_ok = True
    for name in CORPUS:
        pipe = cached_pipeline(name)
        got = {(m.fn, m.node_id, m.op.value, m.variant) for m in pipe.pool.mutants}
        if got != enumerate_mutants(pipe.program):
            mutants_ok = False
        engine = {r.mutant_id for r in _run(pipe, memo=False).results if r.status == "killed"}
        oracle = exhaustive_killed(pipe.program, pipe.pool, pipe.profile, pipe.runtime)
        if engine != oracle:
            killed_ok = False
    ok = closure_ok and mutants_ok and killed_ok
    _report(
        8,
        "oracle equivalences",
        ok,
        f"closure {closure_ok}, mutants {mutants_ok}, killed-set {killed_ok}",
    )


def _decode_key(key):
    r = Reader(key)
    args = [r.value() for _ in range(r.u32())]
    globals_ = {}
    for _ in range(r.u32()):
        name = r.string()
        globals_[name] = r.value()
    return args, globals_


def _call(program, fn, args, globals_override, hooks):
    state = ExecState(program, hooks, 10_000_000)
    state.globals.update(deep_copy(dict(globals_override)))
    verdict, ret = call(state, fn, args)
    return verdict, ret, state


def test_criterion_09_transparency_fuzz():
    entries = []
    for name in CORPUS:
        pipe = cached_pipeline(name)
        for fn, table in pipe.db.tables.items():
            arity = len(pipe.program.functions[fn].params)
            for key in table.entries:
                entries.append((pipe, fn, table, arity, key))
    assert entries, "no memoizable functions in the corpus"
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        pipe, fn, table, arity, key = rng.choice(entries)
        args, globals_ = _decode_key(key)
        if rng.random() < 0.5 and all(type(a) is int for a in args):
            # Random arguments exercise the miss path too.  The range is
            # kept small so naive-recursive functions stay far from the
            # step limit (a limit hit only on the slower run would be a
            # spurious transparency mismatch).
            args = [rng.randrange(-5, 20) for _ in range(arity)]
        plain = _call(pipe.program, fn, deep_copy(args), globals_, None)
        hooked = _call(
            pipe.program, fn, deep_copy(args), globals_, LookupHooks({fn: table})
        )
        same = (
            plain[0] == hooked[0]
            and deep_equal(plain[1], hooked[1])
            and plain[2].output == hooked[2].output
            and set(plain[2].globals) == set(hooked[2].globals)
            and all(
                deep_equal(v, hooked[2].globals[g]) for g, v in plain[2].globals.items()
            )
        )
        if not same:
            mismatches += 1
    _report(9, "transparency fuzz", mismatches == 0, f"1000 executions, {mismatches} mismatches")


def test_criterion_10_persistence():
    rng = random.Random(77)
    round_trip_ok = True
    corruption_ok = True
    for name in CORPUS:
        pipe = cached_pipeline(name)
        blob = db_to_bytes(pipe.db)
        back = db_from_bytes(blob)
        if db_to_bytes(back) != blob:
            round_trip_ok = False
        for off in rng.sample(range(len(blob)), min(20, len(blob))):
            corrupted = bytearray(blob)
            corrupted[off] ^= 0xA5
            try:
                db_from_bytes(bytes(corrupted))
                corruption_ok = False
            except (CorruptDB, SchemaVersionMismatch):
                pass
    ok = round_trip_ok and corruption_ok
    _report(10, "persistence", ok, f"round-trip {round_trip_ok}, corruption {corruption_ok}")
