"""The benchmark's trace points still name attributes of the program.

`benchmarks/tracing.py` counts per-layer spans by replacing the module
attributes listed in its `WRAP_POINTS`.  A renamed import in one of those
modules would leave the benchmark's per-layer counts at zero; this test
fails instead.  The traced benchmark also replaces `runner._worker_run`
with a wrapper that takes one mutant id, so the pool must map that
module-level function over the ids alone.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from memomut import runner
from memomut.memo.builder import LookupHooks

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
    # Module-level, so a pickled reference resolves to the traced wrapper.
    assert (fn.__module__, fn.__qualname__) == ("memomut.runner", "_worker_run")
    (param,) = inspect.signature(fn).parameters.values()
    assert param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
