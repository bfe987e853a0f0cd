"""The benchmark's trace points still name attributes of the program.

`benchmarks/tracing.py` counts per-layer spans by replacing the module
attributes listed in its `WRAP_POINTS`.  A renamed import in one of those
modules would leave the benchmark's per-layer counts at zero; this test
fails instead.  The traced benchmark also replaces `runner._worker_run`
with a wrapper of one argument and moves the spans it records onto each
result, so every mutant, in the parent and in each forked worker, must run
through that module attribute, and what the wrapper sets on a result must
come back with it.  The benchmark's interpreter throughput is a run's
steps over its time inside `runner.run_test`, so every test a mutant
runs, resumed from a shared prefix or not, must be one call of that
module attribute.
"""

import importlib
import importlib.util
import inspect
import os
import time
from pathlib import Path

import pytest

from memomut import runner
from memomut.memo.builder import LookupHooks

from conftest import cached_pipeline

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_benchmark_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAP_POINTS
    for module, attr, _ in tracing.WRAP_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    # Its own method, not the no-op one inherited from `Hooks`.
    assert "on_call_enter" in vars(LookupHooks)


def test_worker_run_takes_one_mutant_id():
    fn = runner._worker_run
    assert inspect.isfunction(fn)
    assert (fn.__module__, fn.__qualname__) == ("memomut.runner", "_worker_run")
    # The mutant's index in the pool: the only argument the wrapper passes on.
    (param,) = inspect.signature(fn).parameters.values()
    assert param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_run_wrapper_sees_every_mutant(monkeypatch, workers):
    pipe = cached_pipeline("sample")
    parent = os.getpid()
    worker_run = runner._worker_run

    def traced(index):
        if os.getpid() == parent:
            time.sleep(0.002)  # leave chunks for the children
        result = worker_run(index)
        result.traced_in = os.getpid()
        return result

    monkeypatch.setattr(runner, "_worker_run", traced)
    report = runner.run_mutation_analysis(
        pipe.program,
        pipe.pool,
        pipe.profile,
        pipe.bundle.closure,
        cfg=runner.RunConfig(workers=workers),
        runtime=pipe.runtime,
    )
    assert [r.mutant_id for r in report.results] == [m.id for m in pipe.pool.mutants]
    pids = {r.traced_in for r in report.results}
    assert (pids == {parent}) == (workers == 1), pids


@pytest.mark.parametrize("workers", [1, 2])
def test_every_mutant_test_run_calls_run_test(monkeypatch, workers):
    """A test the memo run resumes from a shared prefix is still one call
    of `runner.run_test`, the span the benchmark times as the
    interpreter's share of the run, in every process."""
    pipe = cached_pipeline("matrix", tau=1000, tau_unit="steps")
    assert pipe.db.tables
    calls = [0]
    run_test, worker_run = runner.run_test, runner._worker_run

    def counted(*args, **kwargs):
        calls[0] += 1
        return run_test(*args, **kwargs)

    def traced(index):
        calls[0] = 0
        result = worker_run(index)
        result.run_test_calls = calls[0]
        return result

    monkeypatch.setattr(runner, "run_test", counted)
    monkeypatch.setattr(runner, "_worker_run", traced)
    report = runner.run_mutation_analysis(
        pipe.program,
        pipe.pool,
        pipe.profile,
        pipe.bundle.closure,
        db=pipe.db,
        cfg=runner.RunConfig(memo=True, workers=workers),
        runtime=pipe.runtime,
    )
    assert report.totals["resumed_steps"]
    assert sum(r.run_test_calls for r in report.results) == report.totals["tests_run"]
    assert all(r.run_test_calls == r.tests_run for r in report.results)
