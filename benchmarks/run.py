"""Benchmark of `memomut pipeline` on seeded, generated Mini projects.

Usage:
    python3 benchmarks/run.py --workload hot-kernels-par --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Each repetition runs one pipeline
in a fresh process (child.py) on the workload's project, until `--seconds`
have passed.  With `--trace 0` the end-to-end metrics are medians over those
repetitions; with `--trace 1` traced and untraced repetitions alternate and
the per-layer metrics come from the traced ones.  Every repetition's
memo-off and memo-on verdicts are compared mutant by mutant.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every verdict matched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "base_mutants_per_s": "1/s",
    "memo_mutants_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parse.ms": "ms",
    "analyze.ms": "ms",
    "analyze.calls": "count",
    "analyze.call_edges": "count",
    "analyze.nondeterministic": "count",
    "profile.ms": "ms",
    "profile.test_runs": "count",
    "select.candidates": "count",
    "mutate.ms": "ms",
    "mutate.mutants": "count",
    "apply.ms": "ms",
    "apply.calls": "count",
    "record.ms": "ms",
    "record.test_runs": "count",
    "record.entries": "count",
    "provisional.ms": "ms",
    "provisional.test_runs": "count",
    "provisional.tables": "count",
    "provisional.exclusions": "count",
    "lookup.calls": "count",
    "lookup.ms": "ms",
    "lookup.hits": "count",
    "lookup.misses": "count",
    "lookup.gated": "count",
    "lookup.hit_ratio": "ratio",
    "encode_key.calls": "count",
    "encode_key.ms": "ms",
    "fingerprint.calls": "count",
    "fingerprint.ms": "ms",
    "db.save_ms": "ms",
    "db.bytes": "B",
    "interp.base.steps": "count",
    "interp.memo.steps": "count",
    "interp.base.test_runs": "count",
    "interp.memo.test_runs": "count",
    "interp.base.steps_per_s": "1/s",
    "interp.memo.steps_per_s": "1/s",
    "interp.step_saving": "ratio",
    "runner.base.ms": "ms",
    "runner.memo.ms": "ms",
    "runner.self_ms": "ms",
    "runner.tests_per_mutant": "count",
    "runner.step_limit_kills": "count",
    "runner.mutant_ms.p50": "ms",
    "runner.mutant_ms.p90": "ms",
    "runner.mutant_ms.samples": "count",
    "runner.busy_share": "ratio",
    "cli.other_ms": "ms",
    "trace.overhead_pct": "%",
}

# End-to-end times are scaled to a host on which the child's probe burst
# (child.probe_ns, sampled every 50 ms while the pipeline runs) takes this
# long: each segment's wall time is multiplied by this over the mean burst
# time inside it.  A host that changes speed moves the bursts and the
# pipeline together; a change to memomut moves only the pipeline.
PROBE_NOMINAL_NS = 1_000_000

CHILD_TIMEOUT_S = 120
RUN_BUDGET_S = 170  # the whole run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here (not a failed measurement)."""


@dataclass
class Rep:
    """One pipeline process: its end-to-end numbers and verdict check."""

    traced: bool
    mutants: int
    mismatched: int
    metrics: dict[str, float] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)  # metrics before scaling
    layers: dict[str, float] = field(default_factory=dict)
    memoized: list[str] = field(default_factory=list)
    exclusions: dict[str, str] = field(default_factory=dict)
    nondeterministic: dict[str, str] = field(default_factory=dict)
    margins: tuple[float, float] | None = None
    problem: str = ""


# -- verdict gate --------------------------------------------------------------


def verdicts(report: dict) -> dict[int, tuple]:
    return {m["id"]: (m["status"], m["killing_test"], m["cause"]) for m in report["mutants"]}


def mismatched_mutants(base: dict, memo: dict) -> list[int]:
    """Ids whose memo-on verdict (status, killing test, cause) differs from memo-off."""
    b, m = verdicts(base), verdicts(memo)
    return sorted(i for i in b.keys() | m.keys() if b.get(i) != m.get(i))


# -- one repetition -------------------------------------------------------------


def run_child(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"pipeline process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"pipeline process exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def one_rep(project: workloads.Project, warm: workloads.Project, work: Path, n: int,
            mutants: int, traced: bool) -> Rep:
    """Run one pipeline process; `mutants` is the pool size, for counting failures."""
    from memomut.analysis import NONDET_BUILTINS
    from memomut.memo.db import load_db

    proj_dir, art = work / "project", work / f"art{n}"
    spec = {
        "src": str(SRC),
        "mode": "traced" if traced else "timed",
        "out": str(work / f"child{n}.json"),
        "warm": ["pipeline", str(work / "warm"), "--artifact-dir", str(work / f"warm_art{n}")]
        + warm.flags(),
        "main": ["pipeline", str(proj_dir), "--artifact-dir", str(art)] + project.flags(),
    }
    child = run_child(spec, work / f"spec{n}.json")
    names = {row[0] for row in child["segments"]}
    if child["rc"] != 0 or not {"setup", "base", "memo"} <= names:
        return Rep(traced, mutants, mutants,
                   problem=f"pipeline exited {child['rc']}: {child['stdout'][-500:]}")
    base = json.loads((art / "base.json").read_text(encoding="utf-8"))
    memo = json.loads((art / "memo.json").read_text(encoding="utf-8"))
    profile = json.loads((art / "profile.json").read_text(encoding="utf-8"))
    analysis = json.loads((art / "analysis.json").read_text(encoding="utf-8"))
    failing = sorted(t for t, rec in profile["tests"].items() if rec["verdict"]["kind"] != "pass")
    if failing:
        return Rep(traced, mutants, mutants, problem=f"unmutated tests fail: {failing}")
    bad = mismatched_mutants(base, memo)
    rep = Rep(traced, mutants, len(bad), problem=f"verdicts differ for mutants {bad}" if bad else "")

    wall, scaled = segment_seconds(child["segments"], child["probes"])
    rep.wall = rates(wall, mutants, child["peak_rss_kb"])
    rep.metrics = rates(scaled, mutants, child["peak_rss_kb"])
    db = load_db(art / "memo.db")
    rep.memoized = sorted(db.tables)
    rep.exclusions = {fn: f"{e.reason}({e.detail})" if e.detail else e.reason
                      for fn, e in sorted(db.exclusions.items())}
    rep.nondeterministic = {f: why for f, why in sorted(analysis["nondet"].items())
                            if f not in NONDET_BUILTINS}
    rep.margins = selection_margins(project, profile, rep.nondeterministic)
    if traced:
        rep.layers = layer_metrics(child, base, memo, analysis, db, art, project)
    shutil.rmtree(art)
    return rep


def segment_seconds(segments: list[list], probes: list[list]) -> tuple[dict, dict]:
    """Each segment's wall seconds without the probe handler's time, and the
    same scaled to the reference host speed by the probes that ended in it.
    Segments too short to hold a probe use the mean of all probes; without
    probes (traced repetitions) the scaled seconds are the wall seconds."""
    overall = statistics.mean(p[1] for p in probes) if probes else PROBE_NOMINAL_NS
    wall, scaled = {}, {}
    for name, t0, t1 in segments:
        inside = [p for p in probes if t0 < p[0] <= t1]
        wall[name] = (t1 - t0 - sum(p[2] for p in inside)) / 1e9
        burst = statistics.mean(p[1] for p in inside) if inside else overall
        scaled[name] = wall[name] * PROBE_NOMINAL_NS / burst
    return wall, scaled


def rates(seconds: dict[str, float], mutants: int, peak_rss_kb: int) -> dict[str, float]:
    """The end-to-end metrics of one pipeline from its segments' seconds."""
    return {
        "pipeline_s": sum(seconds.values()),
        "setup_s": seconds["setup"],
        "base_mutants_per_s": mutants / seconds["base"],
        "memo_mutants_per_s": mutants / seconds["memo"],
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def selection_margins(project: workloads.Project, profile: dict,
                      nondet: dict) -> tuple[float, float]:
    """(weakest intended kernel's mean / tau, tau / costliest other deterministic mean)."""
    tau = project.tau_us * 1000
    tests = set(profile["tests"])
    means = {f: d["mean_ns"] for f, d in profile["functions"].items()
             if f not in tests and d["invocations"]}
    kernels = [means[f] for f in project.intended if f in means]
    others = [m for f, m in means.items() if f not in project.intended and f not in nondet]
    return (min(kernels) / tau if kernels else float("inf"),
            tau / max(others) if others else float("inf"))


# -- per-layer metrics from one traced repetition --------------------------------


def layer_metrics(child: dict, base: dict, memo: dict, analysis: dict, db, art: Path,
                  project: workloads.Project) -> dict[str, float]:
    from memomut.analysis import NONDET_BUILTINS

    spans = child["spans"]
    by_id = {row[0]: row for row in spans}
    own = tracing.self_times(spans)

    stage_of: dict[int, str] = {}

    def stage(sid: int) -> str:
        if sid not in stage_of:
            row = by_id[sid]
            stage_of[sid] = row[2] if row[1] not in by_id else stage(row[1])
        return stage_of[sid]

    def total(name: str, within: str | None = None, self_time: bool = False) -> tuple[int, float]:
        rows = [r for r in spans if r[2] == name and (within is None or stage(r[0]) == within)]
        ns = sum(own[r[0]] if self_time else r[4] - r[3] for r in rows)
        return len(rows), ns / 1e6

    out: dict[str, float] = {}
    for key, name in (("parse", "parse"), ("analyze", "analyze"), ("profile", "profile"),
                      ("mutate", "mutate"), ("record", "record"),
                      ("provisional", "provisional"), ("apply", "apply"),
                      ("encode_key", "encode_key"), ("fingerprint", "fingerprint")):
        calls, ms = total(name)
        out[f"{key}.ms"] = ms
        if key in ("analyze", "apply", "encode_key", "fingerprint"):
            out[f"{key}.calls"] = calls
    out["analyze.call_edges"] = len(analysis["call_graph"])
    out["analyze.nondeterministic"] = sum(1 for f in analysis["nondet"] if f not in NONDET_BUILTINS)
    out["profile.test_runs"] = total("profiler.run_test")[0]
    out["select.candidates"] = child["counts"].get("select.candidates", 0)
    out["mutate.mutants"] = len(base["mutants"])
    out["record.test_runs"] = total("builder.run_test", "record")[0]
    out["record.entries"] = child["counts"].get("record.entries", 0)
    out["provisional.test_runs"] = total("builder.run_test", "provisional")[0]
    out["provisional.tables"] = len(db.tables)
    out["provisional.exclusions"] = len(db.exclusions)

    out["lookup.calls"], out["lookup.ms"] = total("lookup", "run.memo")
    for kind in ("hits", "misses", "gated"):
        out[f"lookup.{kind}"] = memo["totals"][kind]
    looked = sum(memo["totals"][k] for k in ("hits", "misses", "gated"))
    out["lookup.hit_ratio"] = memo["totals"]["hits"] / looked if looked else 0.0

    out["db.save_ms"] = total("db.save")[1]
    out["db.bytes"] = (art / "memo.db").stat().st_size

    for side, report in (("base", base), ("memo", memo)):
        out[f"interp.{side}.steps"] = report["totals"]["steps"]
        out[f"interp.{side}.test_runs"] = report["totals"]["tests_run"]
        _, interp_ms = total("runner.run_test", f"run.{side}", self_time=True)
        out[f"interp.{side}.steps_per_s"] = report["totals"]["steps"] / (interp_ms / 1e3)
        out[f"runner.{side}.ms"] = total(f"run.{side}")[1]
    out["interp.step_saving"] = 1 - memo["totals"]["steps"] / base["totals"]["steps"]
    out["runner.self_ms"] = total("run.base", self_time=True)[1] + total("run.memo", self_time=True)[1]

    mutants = len(base["mutants"])
    out["runner.tests_per_mutant"] = base["totals"]["tests_run"] / mutants
    out["runner.step_limit_kills"] = sum(1 for m in base["mutants"] if m["cause"] == "step_limit")
    walls = sorted(m["wall_ns"] / 1e6 for m in base["mutants"])
    deciles = statistics.quantiles(walls, n=10)
    out["runner.mutant_ms.p50"] = statistics.median(walls)
    out["runner.mutant_ms.p90"] = deciles[8]
    out["runner.mutant_ms.samples"] = len(walls)
    out["runner.busy_share"] = sum(walls) / (project.workers * out["runner.base.ms"])

    pipeline_ms = sum(t1 - t0 for _, t0, t1 in child["segments"]) / 1e6
    top = sum(r[4] - r[3] for r in spans if r[1] not in by_id)
    out["cli.other_ms"] = pipeline_ms - top / 1e6
    return out


# -- reporting ------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary_line(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return (f"  {name:<28} {med:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  "
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def precheck(project: workloads.Project, proj_dir: Path) -> tuple[list[str], int]:
    """Failing tests of the unmutated project (the asserts hold the oracle's
    values), and the size of its mutant pool."""
    from memomut.lang.interp import Runtime, run_test
    from memomut.mutation import generate_mutants
    from memomut.project import load_project

    program = load_project(proj_dir)
    runtime = Runtime(seed=project.seed, fake_time=True)
    failing = []
    for test in program.tests:
        outcome, _ = run_test(program, test, rng=runtime.rng_for(test), clock=runtime.clock_for(test))
        if not outcome.verdict.passed:
            failing.append(f"{test}: {outcome.verdict}")
    return failing, len(generate_mutants(program).mutants)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    project = workloads.generate(workload, seed)
    warm = workloads.generate(workloads.WARM_UP, seed)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        project.write(work / "project")
        warm.write(work / "warm")
        failing, mutants = precheck(project, work / "project")
        if failing:
            print("unmutated suite does not pass:\n  " + "\n  ".join(failing))
            return {"correct": False, "attempted": len(failing), "failed": len(failing), "metrics": {}}

        reps: list[Rep] = []
        started = time.monotonic()
        longest = 0.0
        while True:
            elapsed = time.monotonic() - started
            enough = len(reps) >= (4 if trace else 3)
            if enough and (elapsed >= seconds or elapsed + 2 * longest > RUN_BUDGET_S):
                break
            t0 = time.monotonic()
            reps.append(one_rep(project, warm, work, len(reps), mutants,
                                traced=trace and len(reps) % 2 == 1))
            longest = max(longest, time.monotonic() - t0)
        return report(project, reps, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it


def report(project: workloads.Project, reps: list[Rep], trace: bool) -> dict:
    attempted = sum(r.mutants for r in reps)
    failed = sum(r.mismatched for r in reps)
    print(f"workload {project.workload}  seed {project.seed}  tau {project.tau_us}us  "
          f"limit {project.limit}  workers {project.workers}  repetitions {len(reps)}")
    for r in reps:
        if r.problem:
            print(f"  FAILED repetition: {r.problem}")
    print(f"  verdicts compared {attempted}, failed {failed}, "
          f"failed_share {failed / attempted if attempted else 0:.6f}")

    ok = [r for r in reps if not r.problem]
    first = ok[0] if ok else None
    if first is not None:
        print(f"  intended memoized set  {project.intended}")
        print(f"  memoized set           {first.memoized}")
        if first.memoized != sorted(project.intended):
            print("  WARNING: the memoized set is not the intended one; the workload changed shape")
        if any(r.memoized != first.memoized for r in ok):
            print("  WARNING: the memoized set differs between repetitions")
        print(f"  exclusions             {first.exclusions}")
        print(f"  nondeterministic       {first.nondeterministic}")
        low, high = first.margins
        print(f"  tau margins            weakest kernel {low:.1f}x above, "
              f"costliest other {high:.1f}x below")

    timed = [r for r in ok if not r.traced]
    metrics: dict[str, dict] = {}
    if not trace:
        print("wall times (median of untraced repetitions):")
        for name, unit in END_TO_END.items():
            if timed:
                print(summary_line(name, unit, [r.wall[name] for r in timed]))
        print(f"end-to-end (median of untraced repetitions, at a probe burst of "
              f"{PROBE_NOMINAL_NS / 1e6:g} ms):")
        for name, unit in END_TO_END.items():
            values = [r.metrics[name] for r in timed]
            if values:
                print(summary_line(name, unit, values))
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        traced = [r for r in ok if r.traced]
        print("per layer (median of traced repetitions):")
        if traced and timed:
            for name, unit in PER_LAYER.items():
                if name == "trace.overhead_pct":
                    plain = statistics.median(r.metrics["pipeline_s"] for r in timed)
                    with_trace = statistics.median(r.metrics["pipeline_s"] for r in traced)
                    values = [(with_trace / plain - 1) * 100]
                else:
                    values = [r.layers[name] for r in traced]
                print(summary_line(name, unit, values))
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            if not any(r.layers["lookup.hits"] + r.layers["lookup.misses"]
                       + r.layers["lookup.gated"] for r in traced):
                print("  note: lookup.hit_ratio is reported as 0 because no call reached a table")
    expected = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and bool(ok) and len(ok) == len(reps) and metrics.keys() == expected.keys()
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memomut" / "cli.py").is_file():
        print(f"benchmark: no memomut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
