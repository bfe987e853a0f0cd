"""End-to-end runs of the benchmark: output contract and per-layer coverage.

Each run uses `--seconds 1`, which still makes the minimum number of
repetitions, so these tests take about a minute and a half.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    metrics = _result(_bench("--workload", "hot-kernels-par", "--seed", "3", "--seconds", "1",
                             "--trace", "0"))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    metrics = _result(_bench("--workload", workload, "--seed", "4", "--seconds", "1",
                             "--trace", "1"))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.PER_LAYER
    value = {name: m["value"] for name, m in metrics.items()}
    # apply_mutant runs once per mutant in each of the two runs; on
    # hot-kernels-par those spans come back from the pool workers.
    assert value["analyze.calls"] == 2
    assert value["apply.calls"] == 2 * value["mutate.mutants"]
    assert value["interp.base.steps_per_s"] > 0 and value["runner.busy_share"] > 0
    if workload == "uncached":
        assert value["lookup.hits"] == value["provisional.tables"] == 0
        assert value["analyze.nondeterministic"] >= 4
    else:
        assert value["lookup.hits"] > 0 and value["provisional.tables"] == 4
    if workload == "array-state":
        assert value["lookup.misses"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "hot-kernels-par", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
