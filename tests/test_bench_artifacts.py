"""A pipeline writes every artifact key the benchmark reads.

`benchmarks/run.py` reads `base.json`, `memo.json`, `profile.json` and
`analysis.json` after each pipeline it runs.  A report or profile that
stopped writing one of those keys would break every benchmark run; this
test fails instead.
"""

import json

import pytest

from memomut import corpus_path
from memomut.cli import main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    art = tmp_path_factory.mktemp("bench") / "artifacts"
    argv = ["pipeline", str(corpus_path("bench_expensive")), "--fake-time", "--artifact-dir", str(art)]
    assert main(argv) == 0
    names = ("base", "memo", "profile", "analysis")
    return {name: json.loads((art / f"{name}.json").read_text()) for name in names}


@pytest.mark.parametrize("name", ["base", "memo"])
def test_reports_carry_what_the_benchmark_reads(artifacts, name):
    report = artifacts[name]
    for key in ("steps", "tests_run", "hits", "misses", "gated"):
        assert type(report["totals"][key]) is int, key
    assert report["mutants"]
    for mutant in report["mutants"]:
        assert {"id", "status", "killing_test", "cause", "wall_ns"} <= mutant.keys()
        assert type(mutant["wall_ns"]) is int


def test_profile_and_analysis_carry_what_the_benchmark_reads(artifacts):
    profile, analysis = artifacts["profile"], artifacts["analysis"]
    assert profile["tests"] and profile["functions"]
    for record in profile["tests"].values():
        assert record["verdict"]["kind"] == "pass"
    for stats in profile["functions"].values():
        assert {"mean_ns", "invocations"} <= stats.keys()
    assert isinstance(analysis["nondet"], dict)
    assert analysis["call_graph"]
