"""Shared fixtures: parsed corpus programs and full pipeline artifacts."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from memomut import corpus_names, corpus_path
from memomut.analysis import AnalysisBundle, analyze_program
from memomut.lang.interp import Runtime
from memomut.memo.builder import provisional_memoization, record_tables
from memomut.memo.db import MemoDB
from memomut.mutation import MutantPool, generate_mutants
from memomut.profiler import (
    Candidate,
    ExpensivenessCriterion,
    Profile,
    TestRecord,
    profile_suite,
    select_candidates,
)
from memomut.project import load_project

TestRecord.__test__ = False  # keep pytest from collecting the dataclass

# Small enough that every corpus program's helpers clear the threshold.
SMALL_TAU_NS = 1_000


@dataclass
class Pipeline:
    name: str
    program: object
    profile: Profile
    bundle: AnalysisBundle
    candidates: list[Candidate]
    raw: MemoDB
    db: MemoDB
    pool: MutantPool
    runtime: Runtime
    criterion: ExpensivenessCriterion


def build_pipeline(
    name: str,
    tau: int = SMALL_TAU_NS,
    tau_unit: str = "ns",
    limit_value: float = 20.0,
    time_rand_only: bool = False,
    seed: int = 0,
) -> Pipeline:
    program = load_project(corpus_path(name))
    runtime = Runtime(seed=seed, fake_time=True)
    profile = profile_suite(program, runtime=runtime)
    bundle = analyze_program(program, time_rand_only=time_rand_only)
    criterion = ExpensivenessCriterion(tau=tau, tau_unit=tau_unit, limit_value=limit_value)
    candidates = select_candidates(profile, bundle.determinacy, criterion)
    raw = record_tables(program, bundle, candidates, profile, criterion=criterion, runtime=runtime)
    db, _ = provisional_memoization(program, raw, profile, bundle.closure, runtime=runtime)
    pool = generate_mutants(program)
    return Pipeline(
        name=name,
        program=program,
        profile=profile,
        bundle=bundle,
        candidates=candidates,
        raw=raw,
        db=db,
        pool=pool,
        runtime=runtime,
        criterion=criterion,
    )


_CACHE: dict[tuple, Pipeline] = {}


def cached_pipeline(name: str, **kw) -> Pipeline:
    key = (name, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = build_pipeline(name, **kw)
    return _CACHE[key]


def cancelling_flip_docs() -> tuple[dict, dict]:
    """Base and memo report JSON with equal scores whose verdicts differ:
    mutant 0 flips killed -> survived and mutant 1 survived -> killed."""

    def doc(memo, statuses):
        mutants = [
            {
                "id": i,
                "status": status,
                "killing_test": "test_a" if status == "killed" else None,
                "cause": "assert_fail" if status == "killed" else None,
                "tests_run": 1,
                "steps": 5,
                "wall_ns": 5,
                "hits": 0,
                "misses": 0,
                "gated": 0,
            }
            for i, status in enumerate(statuses)
        ]
        return {
            "fingerprint": 1,
            "memo_enabled": memo,
            "score": 0.5,
            "wall_ns": 10,
            "totals": {"steps": 10},
            "mutants": mutants,
        }

    return doc(False, ["killed", "survived"]), doc(True, ["survived", "killed"])


@pytest.fixture(scope="session")
def all_corpus_names() -> list[str]:
    return corpus_names()


@pytest.fixture(scope="session")
def corpus_pipelines(all_corpus_names) -> dict[str, Pipeline]:
    return {name: cached_pipeline(name) for name in all_corpus_names}


@pytest.fixture()
def sample_pipeline() -> Pipeline:
    return cached_pipeline("sample")
