"""Every run of a test draws one `rand` stream and one fake clock.

The profile, the recording and provisional runs and every mutant's run of
a test draw `Runtime.rng_for(test)` and `Runtime.clock_for(test)`, as the
benchmark's check of the unmutated suite does.  So a run draws what the
profiled run drew until it makes a different sequence of draws, and what
is memoized does not depend on `--seed`.

To print each corpus program's and each benchmark workload's score,
memoized set and steps at several seeds, against any checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_streams.py
The workloads run with their benchmark flags, whose tau is a wall time,
so their memoized sets can depend on the host's speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from memomut import cli, corpus_names, corpus_path
from memomut.lang.interp import Runtime, run_test
from memomut.memo.db import db_from_bytes
from memomut.profiler import profile_suite
from memomut.project import load_project


@pytest.mark.parametrize("seed", [0, 1])
def test_profile_draws_the_precheck_stream(seed):
    """A test's profiled run is the run the benchmark's precheck makes."""
    for name in corpus_names():
        program = load_project(corpus_path(name))
        rt = Runtime(seed=seed, fake_time=True)
        profile = profile_suite(program, runtime=rt)
        for test in program.tests:
            outcome, state = run_test(program, test, rng=rt.rng_for(test), clock=rt.clock_for(test))
            record = profile.tests[test]
            assert (outcome.verdict, outcome.steps, state.output) == (
                record.verdict,
                record.steps,
                record.output,
            ), (name, test)


def _seed_row(source: Path, flags: list[str]) -> str:
    """One pipeline run's exit code, score, memoized set, exclusions and
    base, memo and resumed steps."""
    with tempfile.TemporaryDirectory() as tmp:
        art = Path(tmp) / "art"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["pipeline", str(source), "--artifact-dir", str(art), *flags])
        if not (art / "comparison.json").exists():
            return f"{code:4}"
        cmp = json.loads((art / "comparison.json").read_text(encoding="utf-8"))
        db = db_from_bytes((art / "memo.db").read_bytes())
    tables = ",".join(sorted(db.tables)) or "-"
    excluded = ",".join(f"{fn}:{e.reason}" for fn, e in sorted(db.exclusions.items())) or "-"
    return (
        f"{code:4} {cmp['score']:8.6f} {tables:34} {excluded:40}"
        f" {cmp['base_steps']:10,} {cmp['memo_steps']:10,} {cmp['resumed_steps']:10,}"
    )


if __name__ == "__main__":
    from test_prefix import workloads

    print(f"{'program:seed':20} exit    score {'memoized':34} {'excluded':40}"
          f" {'base steps':>10} {'memo steps':>10} {'resumed':>10}")
    for name in corpus_names():
        for seed in (0, 1, 2):
            row = _seed_row(corpus_path(name), ["--seed", str(seed), "--fake-time"])
            print(f"{name + ':' + str(seed):20} {row}")
    for workload in workloads.WORKLOADS:
        for seed in (0, 5):
            project = workloads.generate(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
                project.write(Path(tmp))
                row = _seed_row(Path(tmp), project.flags())
            print(f"{workload + ':' + str(seed):20} {row}")
