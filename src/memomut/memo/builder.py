"""Memo-table construction: snapshot recording and provisional filtering.

Recording runs each passing test that covers a candidate once, with
hooks that snapshot, for every candidate the test covers, an input key
at every entry (arguments plus may-read globals) and an output record
at the matching exit (return value, may-write globals, mutated array
arguments).  Provisional memoization then re-runs the same tests with
look-up enabled for one function at a time and throws out anything
that regresses a test or misses the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import AnalysisBundle
from ..lang.ast import Program
from ..lang.interp import Hooks, Runtime, Substitute, run_test
from ..lang.values import deep_copy
from ..profiler import DEFAULT_STEP_LIMIT_FACTOR, Candidate, ExpensivenessCriterion, Profile
from .db import Exclusion, FingerprintMismatch, MemoDB, MemoTable, OutputRecord, encode_record
from .encoding import encode_key, program_fingerprint


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
            key = encode_key(args, [(g, state.globals[g]) for g in table.may_read])
            self._open.append((key, args, state.steps))
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


def count_total(per_method: dict[str, dict[str, int]], kind: str) -> int:
    """The "hits", "misses" or "gated" count summed over every function."""
    return sum(counts[kind] for counts in per_method.values())


class CountTotals:
    """`hits`, `misses` and `gated` summed over the `per_method` counts,
    fn -> {"hits": n, "misses": n, "gated": n}, the only place they are stored."""

    per_method: dict[str, dict[str, int]]

    @property
    def hits(self) -> int:
        return count_total(self.per_method, "hits")

    @property
    def misses(self) -> int:
        return count_total(self.per_method, "misses")

    @property
    def gated(self) -> int:
        return count_total(self.per_method, "gated")


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
            counts = self.per_method[fn] = {"hits": 0, "misses": 0, "gated": 0}
        if fn in self.blocked:
            counts["gated"] += 1
            return None
        key = encode_key(args, [(g, state.globals[g]) for g in table.may_read])
        rec = table.entries.get(key)
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
    step_limit_factor: int = DEFAULT_STEP_LIMIT_FACTOR,
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
        # Named after the test's first candidate, so that a test with one
        # candidate draws the stream a run for that candidate alone would.
        label = f"record:{min(fns)}:{test}"
        run_test(
            program,
            test,
            hooks,
            step_limit=profile.step_budget(test, step_limit_factor),
            rng=runtime.rng_for(label),
            clock=runtime.clock_for(label),
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


@dataclass
class ProvisionalStats:
    hits: dict[str, int]
    misses: dict[str, int]


def provisional_memoization(
    program: Program,
    raw: MemoDB,
    profile: Profile,
    step_limit_factor: int = DEFAULT_STEP_LIMIT_FACTOR,
    runtime: Runtime | None = None,
) -> tuple[MemoDB, ProvisionalStats]:
    """Filter the raw database down to safely memoizable functions.

    A function is dropped if look-up-enabled re-runs of its covering
    tests regress any previously-passing test (verdict or printed
    output) or incur any cache miss.
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
    stats = ProvisionalStats(hits={}, misses={})
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
                step_limit=profile.step_budget(test, step_limit_factor),
                rng=runtime.rng_for(f"provisional:{fn}:{test}"),
                clock=runtime.clock_for(f"provisional:{fn}:{test}"),
            )
            if outcome.verdict != baseline.verdict or state.output != baseline.output:
                failed_test = test
                break
        stats.hits[fn] = hooks.hits
        stats.misses[fn] = hooks.misses
        if failed_test is not None:
            final.exclusions[fn] = Exclusion(reason="new_test_failure", detail=failed_test)
        elif hooks.misses:
            final.exclusions[fn] = Exclusion(
                reason="cache_miss_on_covering_test", detail=str(hooks.misses)
            )
        else:
            final.tables[fn] = table
    return final, stats
