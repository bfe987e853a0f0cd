"""The lossless gate and span self times, on hand-made inputs."""

import run
import tracing


def _report(*verdicts):
    return {"mutants": [
        {"id": i, "status": s, "killing_test": t, "cause": c} for i, (s, t, c) in enumerate(verdicts)
    ]}


def test_gate_fires_when_a_verdict_differs():
    base = _report(("killed", "test_a", "assert_fail"), ("survived", None, None),
                   ("killed", "test_b", "step_limit"))
    memo = _report(("killed", "test_a", "assert_fail"), ("killed", "test_b", "assert_fail"),
                   ("killed", "test_c", "step_limit"))
    assert run.mismatched_mutants(base, memo) == [1, 2]


def test_gate_counts_a_missing_mutant():
    base = _report(("killed", "test_a", "assert_fail"), ("survived", None, None))
    memo = _report(("killed", "test_a", "assert_fail"))
    assert run.mismatched_mutants(base, memo) == [1]


def test_gate_passes_identical_verdicts():
    base = _report(("killed", "test_a", "assert_fail"), ("not_covered", None, None))
    assert run.mismatched_mutants(base, _report(*[
        (m["status"], m["killing_test"], m["cause"]) for m in base["mutants"]])) == []


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [1, 0, "run.base", 0, 100],
        [2, 1, "runner.run_test", 10, 50],  # two workers overlapping
        [3, 1, "runner.run_test", 30, 70],
        [4, 2, "lookup", 20, 25],
        [5, 0, "compare", 100, 110],
    ]
    own = tracing.self_times(spans)
    assert own == {1: 40, 2: 35, 3: 40, 4: 5, 5: 10}


def test_segments_scale_by_the_probes_inside_them():
    ms = 1_000_000
    segments = [["setup", 0, 100 * ms], ["base", 100 * ms, 300 * ms], ["tail", 300 * ms, 301 * ms]]
    # [end, burst, handler]: setup ran at the nominal speed, base at half of it
    probes = [[50 * ms, run.PROBE_NOMINAL_NS, 2 * ms],
              [150 * ms, 2 * run.PROBE_NOMINAL_NS, 4 * ms],
              [250 * ms, 2 * run.PROBE_NOMINAL_NS, 4 * ms]]
    wall, scaled = run.segment_seconds(segments, probes)
    assert wall == {"setup": 0.098, "base": 0.192, "tail": 0.001}
    assert scaled["setup"] == 0.098 and scaled["base"] == 0.096
    # a segment with no probe of its own takes the mean of all of them
    assert abs(scaled["tail"] - 0.001 * 3 / 5) < 1e-12
    # traced repetitions run without the probe and are not scaled
    assert run.segment_seconds(segments, []) == ({"setup": 0.1, "base": 0.2, "tail": 0.001},) * 2
