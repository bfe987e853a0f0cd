"""Memo-table construction: snapshot recording and provisional filtering.

Recording runs each passing test that covers a candidate once, with
hooks that snapshot, for every candidate the test covers, an input key
at every entry (arguments plus may-read globals) and an output record
at the matching exit (return value, may-write globals, mutated array
arguments).  Provisional memoization then re-runs the same tests with
look-up enabled, each once with all the tables it covers and, where
that cannot clear a table, once more per table, and throws out
anything that regresses a test or misses the cache.
"""

from __future__ import annotations

from ..analysis import AnalysisBundle
from ..lang.ast import Program
from ..lang.interp import ExecState, Hooks, Runtime, Substitute, run_test
from ..lang.values import deep_copy
from ..profiler import Candidate, ExpensivenessCriterion, Profile
from .db import Exclusion, FingerprintMismatch, MemoDB, MemoTable, OutputRecord, encode_record
from .encoding import encode_key, program_fingerprint

# The decisions `LookupHooks` counts for each function, in the order reports list them.
KINDS = ("hits", "misses", "gated")


def memo_key(table: MemoTable, args: list, state: ExecState) -> bytes:
    """The key of one call of `table`'s function: its arguments and the
    globals the function may read.  `encode_key` is looked up here at call
    time, so a wrapper installed on this module sees every key."""
    return encode_key(args, [(g, state.globals[g]) for g in table.may_read])


class RecordHooks(Hooks):
    """Fills the memo-tables of every function in `tables` during one
    unmutated run; `conflicted` collects the functions whose table got
    two different records for one key."""

    def __init__(self, tables: dict[str, MemoTable]):
        self.tables = tables
        self.conflicted: set[str] = set()
        # Entries and exits nest, so the top entry is always the one the
        # next exit of a recorded function closes.
        self._open: list[tuple[bytes, list, int]] = []

    def on_call_enter(self, fn, args, state):
        table = self.tables.get(fn)
        if table is not None:
            self._open.append((memo_key(table, args, state), args, state.steps))
        return None

    def on_call_exit(self, fn, ret, state):
        table = self.tables.get(fn)
        if table is None:
            return
        key, args, steps0 = self._open.pop()
        rec = OutputRecord(
            ret=deep_copy(ret),
            written_globals={g: deep_copy(state.globals[g]) for g in table.may_write},
            post_args={
                p: deep_copy(args[p]) for p in table.mut_args if p < len(args)
            },
            output_steps=state.steps - steps0,
        )
        existing = table.entries.get(key)
        if existing is None:
            table.entries[key] = rec
        elif encode_record(existing) != encode_record(rec):
            self.conflicted.add(fn)


class CountTotals:
    """`hits`, `misses` and `gated` summed over the `per_method` counts,
    fn -> {"hits": n, "misses": n, "gated": n}: the one place they are summed."""

    per_method: dict[str, dict[str, int]]

    def count_totals(self) -> dict[str, int]:
        """Each of `KINDS` summed over every function."""
        rows = self.per_method.values()
        return {kind: sum(counts[kind] for counts in rows) for kind in KINDS}

    @property
    def hits(self) -> int:
        return self.count_totals()["hits"]

    @property
    def misses(self) -> int:
        return self.count_totals()["misses"]

    @property
    def gated(self) -> int:
        return self.count_totals()["gated"]


class LookupHooks(Hooks, CountTotals):
    """Bypasses table-holding functions on cache hits.

    A hit is decided and applied here: the recorded globals and mutated
    array arguments are written back into the state and the arguments
    before the recorded return value is handed back.

    `blocked` names functions whose bypass is gated off for the current
    execution (mutated or depending on the mutated function); gated
    entries execute normally and are not counted as cache misses.
    `per_method` counts the decisions for every function that saw one,
    across all the runs that use these hooks.
    """

    def __init__(self, tables: dict[str, MemoTable], blocked: frozenset[str] = frozenset()):
        self.tables = tables
        self.blocked = blocked
        self.per_method: dict[str, dict[str, int]] = {}

    def on_call_enter(self, fn, args, state):
        table = self.tables.get(fn)
        if table is None:
            return None
        counts = self.per_method.get(fn)
        if counts is None:
            counts = self.per_method[fn] = dict.fromkeys(KINDS, 0)
        if fn in self.blocked:
            counts["gated"] += 1
            return None
        rec = table.entries.get(memo_key(table, args, state))
        if rec is None:
            counts["misses"] += 1
            return None
        counts["hits"] += 1
        for g, v in rec.written_globals.items():
            state.globals[g] = deep_copy(v)
        for p, v in rec.post_args.items():
            target = args[p]
            if isinstance(target, list):
                target[:] = deep_copy(v)
        return Substitute(value=deep_copy(rec.ret))


def record_tables(
    program: Program,
    bundle: AnalysisBundle,
    candidates: list[Candidate],
    profile: Profile,
    criterion: ExpensivenessCriterion | None = None,
    runtime: Runtime | None = None,
) -> MemoDB:
    """Raw memo-tables database recorded from the unmutated program."""
    runtime = runtime or Runtime()
    criterion = criterion or ExpensivenessCriterion()
    db = MemoDB(
        fingerprint=program_fingerprint(program),
        tau=criterion.tau,
        tau_unit=criterion.tau_unit,
        limit_value=criterion.limit_value,
        limit_is_pct=criterion.limit_is_pct,
    )
    effects = bundle.effects
    tables = {
        cand.fn: MemoTable(
            fn=cand.fn,
            may_read=sorted(effects.reads.get(cand.fn, ())),
            may_write=sorted(effects.writes.get(cand.fn, ())),
            mut_args=sorted(effects.mut_args.get(cand.fn, ())),
        )
        for cand in candidates
    }
    covered: dict[str, list[str]] = {}
    for cand in candidates:
        for test in cand.covering_tests:
            covered.setdefault(test, []).append(cand.fn)
    conflicted: set[str] = set()
    # Sorted tests fill each table in the order a run per candidate over
    # its (sorted) covering tests would.
    for test in sorted(covered):
        fns = covered[test]
        hooks = RecordHooks({fn: tables[fn] for fn in fns})
        run_test(
            program,
            test,
            hooks,
            step_limit=profile.step_budget(test),
            rng=runtime.rng_for(test),
            clock=runtime.clock_for(test),
        )
        conflicted |= hooks.conflicted
        for fn in fns:
            tables[fn].recorded_from.add(test)
    for fn, table in tables.items():
        if fn in conflicted:
            db.exclusions[fn] = Exclusion(reason="conflicted")
        else:
            db.tables[fn] = table
    return db


def provisional_memoization(
    program: Program,
    raw: MemoDB,
    profile: Profile,
    closure: dict[str, set[str]],
    runtime: Runtime | None = None,
) -> tuple[MemoDB, dict[str, dict[str, int]]]:
    """Filter the raw database down to safely memoizable functions, and
    count each table's look-ups, fn -> {"hits": n, "misses": n, "gated": n}.

    A function is dropped if look-up-enabled re-runs of its covering
    tests regress any previously-passing test (verdict or printed
    output) or incur any cache miss.

    Each covering test first runs once with every table it covers
    enabled.  A table passes on these runs alone if, on every one of its
    tests, the run kept its baseline, no table missed, and no other table
    of the test has the function in its dependency `closure` (a hit on
    that outer function would hide the inner one's look-ups).  Every
    other table is checked alone: its tests run in name order with only
    its look-ups enabled, until one regresses.  Every run of a test draws
    the test's own rng and clock, as its recording run did, and a
    memoized function draws nothing; so a run looks up only recorded
    keys, even ones built from `rand`, unless a real clock or a fault
    moves it.  The counts of a table kept on the shared runs are summed
    over them, where no other table's hit can hide one of its calls; a
    table checked alone has the counts of its own runs.
    """
    if raw.fingerprint != program_fingerprint(program):
        raise FingerprintMismatch("raw database was recorded from a different program")
    runtime = runtime or Runtime()
    final = MemoDB(
        fingerprint=raw.fingerprint,
        tau=raw.tau,
        tau_unit=raw.tau_unit,
        limit_value=raw.limit_value,
        limit_is_pct=raw.limit_is_pct,
        exclusions=dict(raw.exclusions),
    )

    def check(test: str, hooks: LookupHooks) -> bool:
        """Runs `test` with look-ups through `hooks`: whether it kept the
        verdict and printed output it had when profiled."""
        baseline = profile.tests[test]
        outcome, state = run_test(
            program,
            test,
            hooks,
            step_limit=profile.step_budget(test),
            rng=runtime.rng_for(test),
            clock=runtime.clock_for(test),
        )
        return outcome.verdict == baseline.verdict and state.output == baseline.output

    covered: dict[str, list[str]] = {}
    for fn in sorted(raw.tables):
        for test in raw.tables[fn].recorded_from:
            covered.setdefault(test, []).append(fn)
    # One set of hooks counts every table's look-ups over the shared runs;
    # each run enables only the tables its test covers.
    shared = LookupHooks({})
    alone: set[str] = set()
    for test in sorted(covered):
        fns = covered[test]
        shared.tables = {fn: raw.tables[fn] for fn in fns}
        misses = shared.misses
        if not check(test, shared) or shared.misses != misses:
            alone.update(fns)
            continue
        alone.update(fn for fn in fns if any(fn in closure[g] for g in fns if g != fn))
    per_method: dict[str, dict[str, int]] = {}
    for fn in sorted(raw.tables):
        table = raw.tables[fn]
        failed_test = None
        if fn in alone:
            hooks = LookupHooks({fn: table})
            for test in sorted(table.recorded_from):
                if not check(test, hooks):
                    failed_test = test
                    break
        else:
            hooks = shared
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
