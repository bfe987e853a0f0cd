"""The mutation-testing engine and memoization client.

Runs every mutant against the tests covering its mutated function,
optionally intercepting memoized functions for table look-up, and
aggregates verdicts into a mutation score.  Interception is gated: a
function that is mutated, or whose dependency closure contains the
mutated function, always executes its body.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import NoReturn, Optional, Sequence

from .lang.ast import Program
from .lang.interp import Runtime, run_test
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
            for fn, counts in r.per_method.items():
                row = per_method.setdefault(fn, dict.fromkeys(KINDS, 0))
                for kind in KINDS:
                    row[kind] += counts[kind]
        return per_method

    @property
    def totals(self) -> dict[str, int]:
        results = self.results
        return {
            "mutants": len(results),
            **{status: sum(1 for r in results if r.status == status) for status in STATUSES},
            "tests_run": sum(r.tests_run for r in results),
            "steps": sum(r.steps for r in results),
            **self.count_totals(),
        }


def _blocked_functions(db: MemoDB, closure: dict[str, set[str]], mutated_fn: str) -> frozenset[str]:
    return frozenset(
        fn for fn in db.tables if fn == mutated_fn or mutated_fn in closure.get(fn, ())
    )


def _run_single_mutant(
    program: Program,
    mutant: Mutant,
    profile: Profile,
    closure: dict[str, set[str]],
    db: Optional[MemoDB],
    cfg: RunConfig,
    runtime: Runtime,
) -> MutantResult:
    tests = profile.covering_passing_tests(mutant.fn)
    if not tests:
        return MutantResult(mutant_id=mutant.id, status="not_covered")
    mutated = apply_mutant(program, mutant)
    result = MutantResult(mutant_id=mutant.id, status="survived")
    hooks = None
    if cfg.memo and db is not None and db.tables:
        hooks = LookupHooks(db.tables, blocked=_blocked_functions(db, closure, mutant.fn))
    t0 = time.perf_counter_ns()
    for test in tests:
        outcome, _ = run_test(
            mutated,
            test,
            hooks,
            step_limit=profile.step_budget(test),
            rng=runtime.rng_for(f"mutant:{mutant.id}:{test}"),
            clock=runtime.clock_for(f"mutant:{mutant.id}:{test}"),
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
    program, pool, profile, closure, db, cfg, runtime = _RUN
    return _run_single_mutant(program, pool.mutants[index], profile, closure, db, cfg, runtime)


# Bytes per chunk number in the queue pipe.  A write this small is atomic
# and every read asks for exactly this much, so no reader gets part of one.
_NUMBER_BYTES = 4


def _run_chunk(k: int, size: int, n: int, out: list[MutantResult]) -> None:
    out.extend(_worker_run(i) for i in range(k * size, min(k * size + size, n)))


def _take_chunks(queue: int, size: int, n: int, out: list[MutantResult]) -> None:
    """Run chunks read from `queue` until it is empty and every write end closed."""
    while number := os.read(queue, _NUMBER_BYTES):
        _run_chunk(int.from_bytes(number, "little"), size, n, out)


def _queue_chunks(feed: int, chunks: int, size: int, n: int, out: list[MutantResult]) -> None:
    """Write chunk numbers 0..chunks-1 to `feed` without ever blocking.

    While the pipe is full, this process runs the last chunk not yet
    queued itself, so a queue larger than the pipe cannot stall it even
    when no other process is reading.
    """
    os.set_blocking(feed, False)
    k = 0
    while k < chunks:
        try:
            os.write(feed, k.to_bytes(_NUMBER_BYTES, "little"))
            k += 1
        except BlockingIOError:
            chunks -= 1
            _run_chunk(chunks, size, n, out)


def _portable(exc: BaseException) -> Optional[BaseException]:
    """`exc` if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _serve(queue: int, feed: int, reply: int, size: int, n: int) -> NoReturn:
    """A forked worker: run chunks from `queue`, then send back its results,
    or the exception that stopped it and its traceback, pickled on `reply`.

    Every path ends in `os._exit`, so the child never returns into the
    caller's code or flushes the stdio buffers it inherited.
    """
    code = 1
    try:
        os.close(feed)
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
    from one pipe until it is empty.  Each child sends its results back on
    a pipe of its own, which this process reads once its own chunks are
    done.  If this process fails, it kills the children; either way it
    reaps them all before it returns or raises.
    """
    # About 8 chunks per worker: few enough that the queue traffic stays
    # small next to the mutant runs, enough to even out slow mutants.
    size = max(1, math.ceil(n / (8 * workers)))
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
        for _ in range(min(workers, chunks) - 1):
            answer, reply = os.pipe()
            held += answer, reply
            pid = os.fork()
            if pid == 0:
                _serve(queue, feed, reply, size, n)
            children.append((pid, answer))
            close(reply)
        # Queued after the forks, so the children already drain the pipe
        # by the time it could fill up.
        _queue_chunks(feed, chunks, size, n, results)
        close(feed)
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
    _RUN = (program, pool, profile, closure, db, cfg, runtime)
    t0 = time.perf_counter_ns()
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
