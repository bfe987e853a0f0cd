"""The mutation-testing engine and memoization client.

Runs every mutant against the tests covering its mutated function,
optionally intercepting memoized functions for table look-up, and
aggregates verdicts into a mutation score.  Interception is gated: a
function that is mutated, or whose dependency closure contains the
mutated function, always executes its body.  Every mutant's run of a
test, in any process, draws the test's own `rand` stream and clock,
the ones its profiled run drew.

The memo run also shares work among the mutants that run one test.  A
mutant's run of a test is the unmutated program's run, looking nothing
up, until the test first enters the mutated function or any function
that holds a memo table, as long as it draws no `rand` and reads no
clock.  So before any mutant runs, in the process that forks the
workers, the memo run probes each test once: it runs the test on the
unmutated program without look-ups, and keeps, for each function whose
mutants run the test, the state before the top-level statement of the
test's body in which that function's run could first differ.  Every
mutant of the function, in any process, then resumes the test from a
copy of that state (split-stream execution, as in King and Offutt's
Mothra).  A resumed run reports the steps, counts and verdict a run
from the start would.  The base run starts every test afresh: it is
the plain reference that `compare_runs` checks the memo run against,
mutant by mutant.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import NoReturn, Optional, Sequence

from .lang.ast import Program
from .lang.compiler import compile_function
from .lang.interp import Hooks, Prefix, Runtime, code_map, prefixes, run_test
from .memo.builder import KINDS, CountTotals, LookupHooks
from .memo.db import FingerprintMismatch, MemoDB
from .memo.encoding import program_fingerprint
from .mutation import Mutant, MutantPool, apply_mutant
from .profiler import Profile
from .project import typed


# Mutant ids a ScoreMismatch message names before it says "and N more".
_SHOWN_IDS = 10


class ScoreMismatch(Exception):
    """The memo run's verdicts differ from the base run's.

    `mutant_ids` names every mutant whose (status, killing test, cause)
    changed; the scores may still be equal when flips cancel out.
    """

    def __init__(self, base_score: float, memo_score: float, mutant_ids: Sequence[int] = ()):
        msg = f"mutation score changed: {base_score:.6f} -> {memo_score:.6f}"
        if base_score == memo_score:
            msg = f"mutation score unchanged at {base_score:.6f}"
        if mutant_ids:
            msg += ", but verdicts differ for mutants " + ", ".join(map(str, mutant_ids[:_SHOWN_IDS]))
            if len(mutant_ids) > _SHOWN_IDS:
                msg += f" and {len(mutant_ids) - _SHOWN_IDS} more"
        super().__init__(msg)
        self.base_score = base_score
        self.memo_score = memo_score
        self.mutant_ids = list(mutant_ids)


class EmptyPool(Exception):
    pass


class InvalidPool(Exception):
    pass


def check_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError("workers > 1 needs os.fork, which this platform lacks")
    return workers


@dataclass
class RunConfig:
    memo: bool = False
    workers: int = 1

    def __post_init__(self):
        check_workers(self.workers)


STATUSES = ("killed", "survived", "not_covered")


@dataclass
class MutantResult(CountTotals):
    mutant_id: int
    status: str  # one of STATUSES
    killing_test: Optional[str] = None
    cause: Optional[str] = None  # "assert_fail" | "runtime_error" | "step_limit"
    tests_run: int = 0
    steps: int = 0
    # Of `steps`, those of the test prefixes the memo run restored rather than executed.
    resumed_steps: int = 0
    wall_ns: int = 0
    # fn -> {"hits": n, "misses": n, "gated": n} for each memoized function it called
    per_method: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class MutationReport(CountTotals):
    """A run's mutants; its score, totals and per-function counts are
    derived from them, never stored beside them."""

    fingerprint: int
    memo_enabled: bool
    results: list[MutantResult]
    wall_ns: int
    # The functions that held memo tables: each has a `per_method` row,
    # all zeros if no mutant called it.
    tables: tuple[str, ...]

    @property
    def score(self) -> float:
        return compute_score(self.results) if self.results else 0.0

    @property
    def per_method(self) -> dict[str, dict[str, int]]:
        """fn -> {"hits": n, "misses": n, "gated": n} summed over every mutant."""
        per_method = {fn: dict.fromkeys(KINDS, 0) for fn in self.tables}
        for r in self.results:
            _add_counts(per_method, r.per_method)
        return per_method

    @property
    def totals(self) -> dict[str, int]:
        results = self.results
        return {
            "mutants": len(results),
            **{status: sum(1 for r in results if r.status == status) for status in STATUSES},
            "tests_run": sum(r.tests_run for r in results),
            "steps": sum(r.steps for r in results),
            "resumed_steps": sum(r.resumed_steps for r in results),
            **self.count_totals(),
        }


def _add_counts(into: dict[str, dict[str, int]], per_method: dict[str, dict[str, int]]) -> None:
    for fn, counts in per_method.items():
        row = into.setdefault(fn, dict.fromkeys(KINDS, 0))
        for kind in KINDS:
            row[kind] += counts[kind]


def _blocked_functions(db: MemoDB, closure: dict[str, set[str]], mutated_fn: str) -> frozenset[str]:
    return frozenset(
        fn for fn in db.tables if fn == mutated_fn or mutated_fn in closure.get(fn, ())
    )


class _PrefixEnd(Exception):
    """Raised where the probe of a test has every prefix it was asked for."""


class _ProbeHooks(Hooks):
    """The probe of a test for the functions of `targets`.  A function's
    prefix ends at the top-level statement `index` of the test's body
    that first enters the function or any of `tables`, directly or
    through a reference, or calls `rand` or `time_now`; `shared` then
    keeps for it the prefix `before` that statement, unless that is the
    first.  The run ends once every function's prefix has ended."""

    def __init__(self, tables: frozenset[str], targets: list[str]):
        self.tables = tables
        self.open = set(targets)
        self.shared: dict[str, Prefix] = {}
        self.index = 0
        self.before: Optional[Prefix] = None

    def _end(self, fns) -> None:
        for fn in fns:
            self.open.remove(fn)
            if self.index > 0:
                self.shared[fn] = self.before
        if not self.open:
            raise _PrefixEnd()

    def on_call_enter(self, fn, args, state):
        if fn in self.tables:
            self._end(list(self.open))
        elif fn in self.open:
            self._end([fn])
        return None

    def on_builtin(self, name, state):
        if name == "rand" or name == "time_now":
            self._end(list(self.open))


def _probe(
    program: Program, test: str, tables: frozenset[str], targets: list[str], limit: int
) -> dict[str, Prefix]:
    """The prefix of `test` that the memo run shares among the mutants of
    each function of `targets` that has one, by function.

    It runs `test` once on the unmutated program, without look-ups.  A
    function's prefix ends before the top-level statement of the test's
    body in which the test first enters the function or any function of
    `tables`, the ones that hold memo tables, or calls `rand` or
    `time_now`.  Up to that statement a mutant of the function runs the
    same code on the same state, draws nothing and looks nothing up; so
    it can start there.  There is no prefix if that is the first
    statement, or if the test returns, fails or hits a limit before it.
    """
    hooks = _ProbeHooks(tables, targets)
    try:
        for prefix in prefixes(program, test, hooks, limit):
            hooks.index, hooks.before = prefix.index, prefix
    except _PrefixEnd:
        pass
    return hooks.shared


def _run_single_mutant(
    program: Program,
    mutant: Mutant,
    tests: list[str],
    tables: Optional[dict],
    blocked: frozenset[str],
    starts: dict[str, Prefix],
    profile: Profile,
    runtime: Runtime,
) -> MutantResult:
    """Run `mutant` against `tests`, the passing tests that cover its
    function, with look-ups in `tables`, if any, but those `blocked`.

    A test with a prefix in `starts` resumes from it: the prefix's steps
    count as the run's own, and as `resumed_steps` too.  The base run has
    no prefixes."""
    if not tests:
        return MutantResult(mutant_id=mutant.id, status="not_covered")
    mutated = apply_mutant(program, mutant)
    # The program's code with the one function swapped, which reuses the
    # program's closures for every node the mutant did not copy.
    code = code_map(program)
    code = {**code, mutant.fn: compile_function(mutated.functions[mutant.fn], code[mutant.fn])}
    result = MutantResult(mutant_id=mutant.id, status="survived")
    hooks = None if tables is None else LookupHooks(tables, blocked=blocked)
    t0 = time.perf_counter_ns()
    for test in tests:
        start = starts.get(test)
        if start is not None:
            result.resumed_steps += start.steps
        outcome, _ = run_test(
            mutated,
            test,
            hooks,
            step_limit=profile.step_budget(test),
            rng=runtime.rng_for(test),
            clock=runtime.clock_for(test),
            code=code,
            start=start,
        )
        result.tests_run += 1
        result.steps += outcome.steps
        if not outcome.verdict.passed:
            result.status = "killed"
            result.killing_test = test
            result.cause = outcome.verdict.kind
            break
    result.wall_ns = time.perf_counter_ns() - t0
    if hooks is not None:
        result.per_method = hooks.per_method
    return result


# The run `_worker_run` serves.  `run_mutation_analysis` sets it for one
# run, and the workers it forks inherit it.  A module-level function of one
# argument, looked up at call time, lets a wrapper installed in its place
# (the benchmark's tracer) see every mutant in every process.
_RUN = None


def _worker_run(index: int) -> MutantResult:
    """Run the current run's `index`-th mutant."""
    program, pool, per_fn, tables, profile, runtime = _RUN
    mutant = pool.mutants[index]
    tests, blocked, starts = per_fn[mutant.fn]
    return _run_single_mutant(program, mutant, tests, tables, blocked, starts, profile, runtime)


# Bytes per chunk number in the queue pipe.  The whole queue is one atomic
# write and every read asks for exactly this much, so no reader gets part
# of one.
_NUMBER_BYTES = 4


def _take_chunks(queue: int, size: int, n: int, out: list[MutantResult]) -> None:
    """Run chunks read from `queue` until it is empty and its write end closed."""
    while number := os.read(queue, _NUMBER_BYTES):
        k = int.from_bytes(number, "little")
        out.extend(_worker_run(i) for i in range(k * size, min(k * size + size, n)))


def _chunk_size(n: int, workers: int) -> int:
    """Mutants per chunk of a run of `n` mutants on `workers` processes.

    About 8 chunks per worker: few enough that the queue traffic stays
    small next to the mutant runs, enough to even out slow mutants.  Never
    more chunks than one atomic pipe write holds, so the whole queue is
    written at once, before any worker starts.
    """
    return max(1, math.ceil(n / min(8 * workers, select.PIPE_BUF // _NUMBER_BYTES)))


def _portable(exc: BaseException) -> Optional[BaseException]:
    """`exc` if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _serve(queue: int, reply: int, size: int, n: int) -> NoReturn:
    """A forked worker: run chunks from `queue`, then send back its results,
    or the exception that stopped it and its traceback, pickled on `reply`.

    Every path ends in `os._exit`, so the child never returns into the
    caller's code or flushes the stdio buffers it inherited.
    """
    code = 1
    try:
        results: list[MutantResult] = []
        try:
            _take_chunks(queue, size, n, results)
            payload = results
        except BaseException as exc:  # raised again in the parent
            payload = _portable(exc), "".join(traceback.format_exception(exc))
        with open(reply, "wb") as out:
            pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _received(pid: int, blob: bytes, status: int) -> list[MutantResult]:
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"worker process {pid} ended with status {code} before sending its results")
    payload = pickle.loads(blob)
    if isinstance(payload, list):
        return payload
    exc, text = payload
    cause = RuntimeError(f"worker process {pid} failed:\n{text}")
    if exc is None:
        raise cause
    raise exc from cause


def _run_all(n: int, workers: int) -> list[MutantResult]:
    """Results of the current run's `n` mutants, unordered.

    This process and up to `workers - 1` forked ones pull chunk numbers
    from one pipe, filled and closed before the first fork, until it is
    empty.  Each child sends its results back on a pipe of its own, which
    this process reads once its own chunks are done.  If this process
    fails, it kills the children; either way it reaps them all before it
    returns or raises.
    """
    size = _chunk_size(n, workers)
    chunks = math.ceil(n / size)
    parent = os.getpid()
    results: list[MutantResult] = []
    children: list[tuple[int, int]] = []  # (pid, read end of its reply pipe)
    held = list(os.pipe())  # pipe ends this process still has open
    queue, feed = held

    def close(fd: int) -> None:
        held.remove(fd)
        os.close(fd)

    try:
        os.write(feed, b"".join(k.to_bytes(_NUMBER_BYTES, "little") for k in range(chunks)))
        close(feed)
        for _ in range(min(workers, chunks) - 1):
            answer, reply = os.pipe()
            held += answer, reply
            pid = os.fork()
            if pid == 0:
                _serve(queue, reply, size, n)
            children.append((pid, answer))
            close(reply)
        _take_chunks(queue, size, n, results)
        blobs = []
        for _, answer in children:
            with open(answer, "rb", closefd=False) as pipe:
                blobs.append(pipe.read())
    except BaseException:
        if os.getpid() != parent:  # interrupted between fork and `_serve`
            os._exit(1)
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in held:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for (pid, _), blob, status in zip(children, blobs, statuses):
        results += _received(pid, blob, status)
    return results


def compute_score(results: list[MutantResult]) -> float:
    """Killed over all generated mutants (not-covered counts as non-killed)."""
    if not results:
        raise EmptyPool("no mutant results")
    killed = sum(1 for r in results if r.status == "killed")
    return killed / len(results)


def run_mutation_analysis(
    program: Program,
    pool: MutantPool,
    profile: Profile,
    closure: dict[str, set[str]],
    db: Optional[MemoDB] = None,
    cfg: Optional[RunConfig] = None,
    runtime: Optional[Runtime] = None,
) -> MutationReport:
    cfg = cfg or RunConfig()
    runtime = runtime or Runtime()
    fingerprint = program_fingerprint(program)
    if pool.fingerprint != fingerprint:
        raise InvalidPool("mutant pool was generated from a different program")
    if cfg.memo and db is not None and db.fingerprint != fingerprint:
        raise FingerprintMismatch("memo database does not match the program")

    global _RUN
    tables = db.tables if cfg.memo and db is not None and db.tables else None
    # What all mutants of one function share: the tests to run them
    # against, the tables their mutation gates off, and the prefixes the
    # memo run resumes those tests from.
    per_fn = {
        fn: (profile.covering_passing_tests(fn), _blocked_functions(db, closure, fn) if tables else frozenset(), {})
        for fn in {m.fn for m in pool.mutants}
    }
    t0 = time.perf_counter_ns()
    if cfg.memo:
        # Each test is probed once, inside the timed run, for every function
        # whose mutants run it; the workers `_run_all` forks inherit the
        # prefixes.  test -> the functions whose mutants run it
        targets: dict[str, list[str]] = {}
        for fn, (tests, _, _) in per_fn.items():
            for test in tests:
                targets.setdefault(test, []).append(fn)
        memoized = frozenset(tables or ())
        for test, fns in targets.items():
            for fn, prefix in _probe(program, test, memoized, fns, profile.step_budget(test)).items():
                per_fn[fn][2][test] = prefix
    _RUN = (program, pool, per_fn, tables, profile, runtime)
    try:
        results = _run_all(len(pool.mutants), cfg.workers)
    finally:
        _RUN = None
    wall = time.perf_counter_ns() - t0
    results.sort(key=lambda r: r.mutant_id)
    return MutationReport(
        fingerprint=fingerprint,
        memo_enabled=cfg.memo,
        results=results,
        wall_ns=wall,
        tables=tuple(db.tables) if cfg.memo and db is not None else (),
    )


def _verdict(r: MutantResult) -> tuple:
    return r.status, r.killing_test, r.cause


def compare_runs(base: MutationReport, memo: MutationReport) -> dict:
    """Comparison block; raises ScoreMismatch if the lossless guarantee broke.

    The guarantee is per mutant: each one must keep its status, killing
    test and cause, so flips that cancel out in the score still fail.
    """
    if base.memo_enabled or not memo.memo_enabled:
        raise ValueError("expected a memo-off report, then a memo-on report")
    if base.fingerprint != memo.fingerprint:
        raise FingerprintMismatch("reports cover different programs")
    base_verdicts = {r.mutant_id: _verdict(r) for r in base.results}
    memo_verdicts = {r.mutant_id: _verdict(r) for r in memo.results}
    differing = sorted(
        mid
        for mid in base_verdicts.keys() | memo_verdicts.keys()
        if base_verdicts.get(mid) != memo_verdicts.get(mid)
    )
    score = base.score
    if score != memo.score or differing:
        raise ScoreMismatch(score, memo.score, differing)
    speedup = (base.wall_ns - memo.wall_ns) / base.wall_ns if base.wall_ns else 0.0
    base_steps, memo_steps = base.totals["steps"], memo.totals["steps"]
    step_saving = (base_steps - memo_steps) / base_steps if base_steps else 0.0
    return {
        "score": round(score, 6),
        "base_wall_ns": base.wall_ns,
        "memo_wall_ns": memo.wall_ns,
        "speedup_pct": round(speedup * 100.0, 2),
        "base_steps": base_steps,
        "memo_steps": memo_steps,
        "step_saving_pct": round(step_saving * 100.0, 2),
        "resumed_steps": memo.totals["resumed_steps"],
        **memo.count_totals(),
        "per_method": memo.per_method,
    }


# -- JSON -------------------------------------------------------------------


def _counts_to_json(per_method: dict[str, dict[str, int]]) -> dict:
    return {fn: dict(sorted(d.items())) for fn, d in sorted(per_method.items())}


def report_to_json(report: MutationReport) -> dict:
    """The report's mutants, and for readers its score, totals and
    per-function counts; `report_from_json` reads back only the mutants."""
    return {
        "fingerprint": report.fingerprint,
        "memo_enabled": report.memo_enabled,
        "score": round(report.score, 6),
        "wall_ns": report.wall_ns,
        "totals": dict(sorted(report.totals.items())),
        "per_method": _counts_to_json(report.per_method),
        "mutants": [
            {
                "id": r.mutant_id,
                "status": r.status,
                "killing_test": r.killing_test,
                "cause": r.cause,
                "tests_run": r.tests_run,
                "steps": r.steps,
                "resumed_steps": r.resumed_steps,
                "wall_ns": r.wall_ns,
                **r.count_totals(),
                "per_method": _counts_to_json(r.per_method),
            }
            for r in report.results
        ],
    }


def _result_from_json(d: dict) -> MutantResult:
    if d["status"] not in STATUSES:
        raise ValueError(f"mutant {d['id']}: unknown status {d['status']!r}")
    return MutantResult(
        mutant_id=typed(d["id"], int),
        status=d["status"],
        killing_test=typed(d["killing_test"], str, type(None)),
        cause=typed(d["cause"], str, type(None)),
        tests_run=typed(d["tests_run"], int),
        steps=typed(d["steps"], int),
        resumed_steps=typed(d["resumed_steps"], int),
        wall_ns=typed(d["wall_ns"], int),
        per_method={
            fn: {kind: typed(counts[kind], int) for kind in KINDS}
            for fn, counts in d.get("per_method", {}).items()
        },
    )


def report_from_json(doc: dict) -> MutationReport:
    """The report whose mutants `doc` lists.  Its score, totals and counts
    are derived again; of `per_method` only the function names are read."""
    results = [_result_from_json(d) for d in doc["mutants"]]
    return MutationReport(
        fingerprint=typed(doc["fingerprint"], int),
        memo_enabled=typed(doc["memo_enabled"], bool),
        results=results,
        wall_ns=typed(doc["wall_ns"], int),
        tables=tuple(typed(doc.get("per_method", {}), dict)),
    )
