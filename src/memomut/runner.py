"""The mutation-testing engine and memoization client.

Runs every mutant against the tests covering its mutated function,
optionally intercepting memoized functions for table look-up, and
aggregates verdicts into a mutation score.  Interception is gated: a
function that is mutated, or whose dependency closure contains the
mutated function, always executes its body.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .lang.ast import Program
from .lang.interp import Runtime, run_test
from .memo.builder import LookupHooks
from .memo.db import FingerprintMismatch, MemoDB
from .memo.encoding import program_fingerprint
from .mutation import Mutant, MutantPool, apply_mutant
from .profiler import DEFAULT_STEP_LIMIT_FACTOR, Profile, check_step_limit_factor


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


@dataclass
class RunConfig:
    memo: bool = False
    step_limit_factor: int = DEFAULT_STEP_LIMIT_FACTOR
    all_tests: bool = False
    workers: int = 1

    def __post_init__(self):
        check_step_limit_factor(self.step_limit_factor)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class MutantResult:
    mutant_id: int
    status: str  # "killed" | "survived" | "not_covered"
    killing_test: Optional[str] = None
    cause: Optional[str] = None  # "assert_fail" | "runtime_error" | "step_limit"
    tests_run: int = 0
    steps: int = 0
    wall_ns: int = 0
    hits: int = 0
    misses: int = 0
    gated: int = 0
    # fn -> {"hits": n, "misses": n, "gated": n} for each memoized function it called
    per_method: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class MutationReport:
    fingerprint: int
    memo_enabled: bool
    score: float
    results: list[MutantResult]
    per_method: dict[str, dict[str, int]]  # fn -> {"hits": n, "misses": n, "gated": n}
    totals: dict[str, int]
    wall_ns: int


def _blocked_functions(db: MemoDB, closure: dict[str, set[str]], mutated_fn: str) -> frozenset[str]:
    return frozenset(
        fn for fn in db.tables if fn == mutated_fn or mutated_fn in closure.get(fn, ())
    )


def _select_tests(profile: Profile, fn: str, all_tests: bool) -> list[str]:
    if all_tests:
        return sorted(profile.passing_tests())
    return profile.covering_passing_tests(fn)


def _run_single_mutant(
    program: Program,
    mutant: Mutant,
    profile: Profile,
    closure: dict[str, set[str]],
    db: Optional[MemoDB],
    cfg: RunConfig,
    runtime: Runtime,
) -> MutantResult:
    tests = _select_tests(profile, mutant.fn, cfg.all_tests)
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
            step_limit=profile.step_budget(test, cfg.step_limit_factor),
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
        result.hits, result.misses, result.gated = hooks.hits, hooks.misses, hooks.gated
        result.per_method = hooks.per_method
    return result


# Shared state for worker processes; set once per worker via the
# executor initializer so the (immutable) inputs are pickled only once.
_WORKER_CTX = None


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_run(mutant_id: int) -> MutantResult:
    program, pool, profile, closure, db, cfg, runtime = _WORKER_CTX
    return _run_single_mutant(program, pool.mutants[mutant_id], profile, closure, db, cfg, runtime)


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

    t0 = time.perf_counter_ns()
    if cfg.workers > 1 and len(pool.mutants) > 1:
        ctx = (program, pool, profile, closure, db, cfg, runtime)
        ids = [m.id for m in pool.mutants]
        # About 8 tasks per worker: few enough that the per-task IPC stays
        # small next to the mutant runs, enough to even out slow mutants.
        chunksize = math.ceil(len(ids) / (8 * cfg.workers))
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_init_worker, initargs=(ctx,)
        ) as ex:
            results = list(ex.map(_worker_run, ids, chunksize=chunksize))
    else:
        results = [
            _run_single_mutant(program, m, profile, closure, db, cfg, runtime)
            for m in pool.mutants
        ]
    wall = time.perf_counter_ns() - t0
    results.sort(key=lambda r: r.mutant_id)

    per_method: dict[str, dict[str, int]] = {}
    if cfg.memo and db is not None:
        per_method = {fn: {"hits": 0, "misses": 0, "gated": 0} for fn in db.tables}
        for r in results:
            for fn, counts in r.per_method.items():
                for kind, n in counts.items():
                    per_method[fn][kind] += n
    totals = {
        "mutants": len(results),
        "killed": sum(1 for r in results if r.status == "killed"),
        "survived": sum(1 for r in results if r.status == "survived"),
        "not_covered": sum(1 for r in results if r.status == "not_covered"),
        "tests_run": sum(r.tests_run for r in results),
        "steps": sum(r.steps for r in results),
        "hits": sum(r.hits for r in results),
        "misses": sum(r.misses for r in results),
        "gated": sum(r.gated for r in results),
    }
    return MutationReport(
        fingerprint=fingerprint,
        memo_enabled=cfg.memo,
        score=compute_score(results) if results else 0.0,
        results=results,
        per_method=per_method,
        totals=totals,
        wall_ns=wall,
    )


def _verdict(r: MutantResult) -> tuple:
    return r.status, r.killing_test, r.cause


def compare_runs(base: MutationReport, memo: MutationReport) -> dict:
    """Comparison block; raises ScoreMismatch if the lossless guarantee broke.

    The guarantee is per mutant: each one must keep its status, killing
    test and cause, so flips that cancel out in the score still fail.
    """
    if base.fingerprint != memo.fingerprint:
        raise FingerprintMismatch("reports cover different programs")
    base_verdicts = {r.mutant_id: _verdict(r) for r in base.results}
    memo_verdicts = {r.mutant_id: _verdict(r) for r in memo.results}
    differing = sorted(
        mid
        for mid in base_verdicts.keys() | memo_verdicts.keys()
        if base_verdicts.get(mid) != memo_verdicts.get(mid)
    )
    if base.score != memo.score or differing:
        raise ScoreMismatch(base.score, memo.score, differing)
    speedup = (base.wall_ns - memo.wall_ns) / base.wall_ns if base.wall_ns else 0.0
    step_saving = (
        (base.totals["steps"] - memo.totals["steps"]) / base.totals["steps"]
        if base.totals["steps"]
        else 0.0
    )
    return {
        "score": round(base.score, 6),
        "base_wall_ns": base.wall_ns,
        "memo_wall_ns": memo.wall_ns,
        "speedup_pct": round(speedup * 100.0, 2),
        "base_steps": base.totals["steps"],
        "memo_steps": memo.totals["steps"],
        "step_saving_pct": round(step_saving * 100.0, 2),
        "hits": memo.totals["hits"],
        "misses": memo.totals["misses"],
        "gated": memo.totals["gated"],
        "per_method": memo.per_method,
    }


# -- JSON -------------------------------------------------------------------


def report_to_json(report: MutationReport) -> dict:
    return {
        "fingerprint": report.fingerprint,
        "memo_enabled": report.memo_enabled,
        "score": round(report.score, 6),
        "wall_ns": report.wall_ns,
        "totals": dict(sorted(report.totals.items())),
        "per_method": {fn: dict(sorted(d.items())) for fn, d in sorted(report.per_method.items())},
        "mutants": [
            {
                "id": r.mutant_id,
                "status": r.status,
                "killing_test": r.killing_test,
                "cause": r.cause,
                "tests_run": r.tests_run,
                "steps": r.steps,
                "wall_ns": r.wall_ns,
                "hits": r.hits,
                "misses": r.misses,
                "gated": r.gated,
            }
            for r in report.results
        ],
    }


def report_from_json(doc: dict) -> MutationReport:
    results = [
        MutantResult(
            mutant_id=d["id"],
            status=d["status"],
            killing_test=d["killing_test"],
            cause=d["cause"],
            tests_run=d["tests_run"],
            steps=d["steps"],
            wall_ns=d["wall_ns"],
            hits=d["hits"],
            misses=d["misses"],
            gated=d["gated"],
        )
        for d in doc["mutants"]
    ]
    return MutationReport(
        fingerprint=doc["fingerprint"],
        memo_enabled=doc["memo_enabled"],
        score=doc["score"],
        results=results,
        per_method=doc.get("per_method", {}),
        totals=doc["totals"],
        wall_ns=doc["wall_ns"],
    )
