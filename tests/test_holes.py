"""Known holes in lossless scoring, each a minimal program under `holes/`.

Each program makes `memomut pipeline` fail at the settings that memoize
every deterministic function: the memo run gives some mutant another
verdict than the base run (exit 3), or the pipeline crashes.  The tests
are strict expected failures, so the fix of a hole turns its test into an
unexpected pass, and the fix's change must drop the mark.
"""

from pathlib import Path

import pytest

from memomut import cli

HOLES = Path(__file__).with_name("holes")


def _hole(name: str, item: int):
    return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}"))


@pytest.mark.parametrize(
    "name",
    [
        _hole("budget", 1),  # a hit charges 1 step, not the steps it replaces
        _hole("depth", 1),  # a hit skips the callee's nested frames
        _hole("alias", 2),  # a hit returns a copy, not the argument it returned
        _hole("nest", 1),  # printing a deeply nested array recurses in Python
    ],
)
def test_pipeline_keeps_every_verdict(name, tmp_path):
    argv = [
        "pipeline",
        str(HOLES / f"{name}.mini"),
        "--tau", "1steps",
        "--limit", "100%",
        "--fake-time",
        "--artifact-dir", str(tmp_path),
    ]
    try:
        code = cli.main(argv)
    except RecursionError:
        # A crash, not a verdict.  Caught here, because pytest takes
        # minutes to format a traceback thousands of frames deep.
        code = None
    assert code == 0
