"""The workload generator: determinism, fixed shape, and its oracle."""

import re

import pytest
import workloads
from memomut.lang.interp import Runtime, run_test
from memomut.lang.parser import parse

NAMES = sorted(workloads.WORKLOADS) + [workloads.WARM_UP]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_source(name):
    assert workloads.generate(name, 7).source == workloads.generate(name, 7).source


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_numbers_but_not_shape(name):
    sources = [workloads.generate(name, seed).source for seed in range(4)]
    assert len(set(sources)) == 4
    shapes = {re.sub(r"-?\d+", "N", s) for s in sources}
    assert len(shapes) == 1


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unmutated_suite_passes_with_oracle_values(name, seed):
    project = workloads.generate(name, seed)
    program = parse(project.source)
    runtime = Runtime(seed=seed, fake_time=True)
    assert program.tests
    for test in program.tests:
        outcome, _ = run_test(program, test, rng=runtime.rng_for(test), clock=runtime.clock_for(test))
        assert outcome.verdict.passed, (test, outcome.verdict)
    assert set(project.intended) <= set(program.functions)


def test_oracle_arithmetic_matches_mini_rules():
    assert workloads.wrap(1 << 63) == -(1 << 63)
    assert workloads.wrap(-(1 << 63) - 1) == (1 << 63) - 1
    assert workloads.div(-7, 2) == -3 and workloads.div(7, -2) == -3 and workloads.div(-7, -2) == 3
    assert workloads.mod(-7, 2) == -1 and workloads.mod(7, -2) == 1
    assert workloads.div(-(1 << 63), -1) == -(1 << 63)


def test_unknown_workload_is_rejected():
    with pytest.raises(KeyError):
        workloads.generate("no-such-workload", 0)
