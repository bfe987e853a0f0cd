"""Value helpers: wrapping, copies, equality; and Mini's truncating `/` and `%`."""

from hypothesis import given, strategies as st

from memomut.lang.values import (
    FnRef,
    UNIT,
    Unit,
    contains_array,
    deep_copy,
    deep_equal,
    format_value,
    literal_str,
    wrap64,
)
from memomut.lang.parser import parse

from oracles import run_function

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1


def test_unit_is_singleton():
    assert Unit() is UNIT


def test_wrap64_edges():
    assert wrap64(INT_MAX + 1) == INT_MIN
    assert wrap64(INT_MIN - 1) == INT_MAX
    assert wrap64(0) == 0
    assert wrap64(INT_MIN * 2) == 0


@given(st.integers())
def test_wrap64_in_range_and_congruent(n):
    w = wrap64(n)
    assert INT_MIN <= w <= INT_MAX
    assert (w - n) % (1 << 64) == 0


_DIV_MOD = parse("fn div_mod(a, b) { return [a / b, a % b]; }")


@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
def test_trunc_div_mod_identity(a, b):
    if b == 0:
        return
    (q, r), _ = run_function(_DIV_MOD, "div_mod", [a, b])
    assert q * b + r == a
    assert abs(r) < abs(b)
    # sign follows the dividend
    assert r == 0 or (r > 0) == (a > 0)


def test_trunc_div_examples():
    # By literals and by arguments, which compile to different code.
    literals, _ = run_function(parse("fn f() { return [7 / 2, -7 / 2, 7 / -2, -7 % 2]; }"), "f", [])
    assert literals == [3, -3, -3, -1]
    assert [run_function(_DIV_MOD, "div_mod", [a, b])[0] for a, b in ((7, 2), (-7, 2), (7, -2))] == [
        [3, 1], [-3, -1], [-3, 1]]


def test_deep_copy_shares_nothing():
    inner = [1, 2]
    orig = [inner, "s", [inner]]
    cp = deep_copy(orig)
    assert deep_equal(orig, cp)
    assert cp is not orig
    assert cp[0] is not inner
    cp[0].append(99)
    assert inner == [1, 2]


def test_deep_equal_distinguishes_bool_and_int():
    assert not deep_equal(True, 1)
    assert not deep_equal(0, False)
    assert deep_equal([1, [2]], [1, [2]])
    assert not deep_equal([1], [1, 2])


def test_contains_array_identity_not_structure():
    target = [1]
    assert contains_array([[2], [target]], target)
    assert not contains_array([[1]], target)  # equal but not identical


def test_formatting():
    assert format_value([1, "a", True, FnRef("f")]) == '[1, "a", true, &f]'
    assert format_value("plain") == "plain"
    assert literal_str('a"b\n') == '"a\\"b\\n"'
    assert format_value(UNIT) == "unit"


_values = st.recursive(
    st.integers(min_value=INT_MIN, max_value=INT_MAX)
    | st.booleans()
    | st.text(max_size=8)
    | st.builds(FnRef, st.sampled_from(["f", "g"])),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)


@given(_values)
def test_deep_copy_round_trips(v):
    assert deep_equal(v, deep_copy(v))
