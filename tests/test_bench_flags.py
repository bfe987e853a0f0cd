"""The CLI accepts every flag the benchmark passes.

`benchmarks/run.py` runs `memomut pipeline DIR --artifact-dir X` plus each
generated project's `flags()`.  A setting dropped from the CLI's table, or
moved off `pipeline`, would make every benchmark run exit 64; this test
fails instead, without running a pipeline.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from memomut.cli import Settings, _build_parser

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("workload", [*workloads.WORKLOADS, workloads.WARM_UP])
def test_cli_parses_every_benchmark_flag(workload, tmp_path):
    project = workloads.generate(workload, 0)
    argv = ["pipeline", str(tmp_path), "--artifact-dir", str(tmp_path / "art")] + project.flags()
    args = _build_parser().parse_args(argv)
    settings = Settings(args, {})
    assert (settings["seed"], settings["fake_time"]) == (0, True)
    assert settings["tau"] == (project.tau_us * 1000, "ns")
    assert settings["limit"] == (float(project.limit), False)
    assert settings["workers"] == project.workers
    assert settings["artifact_dir"] == str(tmp_path / "art")
