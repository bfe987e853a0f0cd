"""Seeded generators for the benchmark's Mini projects, with a Python oracle.

Each workload has a fixed shape: the same functions, tests, call sites and
loop trip counts for every seed.  The seed picks only coefficients and
arguments, chosen so that a mutant's fate follows from the shape; over
seeds 0-4 every mutant of the hot-kernels project and of uncached met the
same fate and the interpreter ran the same number of steps to within 0.2%.

Expected values in every `assert` come from Python twins of the generated
functions.  The twins use this module's own 64-bit wrap and truncating
division, not `memomut.lang.values`, so the reference does not share code
with the system under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_I64_MIN = -(1 << 63)


def wrap(n: int) -> int:
    """Mini's signed 64-bit two's-complement wrap."""
    return ((n - _I64_MIN) % (1 << 64)) + _I64_MIN


def div(a: int, b: int) -> int:
    """Mini `/`: truncates toward zero."""
    q = abs(a) // abs(b)
    return wrap(-q if (a < 0) != (b < 0) else q)


def mod(a: int, b: int) -> int:
    """Mini `%`: the remainder takes the dividend's sign."""
    q = abs(a) // abs(b)
    q = -q if (a < 0) != (b < 0) else q
    return wrap(a - q * b)


@dataclass
class Fn:
    """One generated Mini function and its Python twin."""

    name: str
    source: str
    py: Callable


@dataclass
class Project:
    """A generated workload: its sources and how the pipeline is run on it."""

    workload: str
    seed: int
    source: str
    intended: list[str]  # functions the workload is built to have memoized
    tau_us: int
    limit: int
    workers: int

    def flags(self) -> list[str]:
        """Pipeline flags besides the project path and the artifact dir."""
        return ["--seed", str(self.seed), "--fake-time", "--tau", f"{self.tau_us}us",
                "--limit", str(self.limit), "--workers", str(self.workers)]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "main.mini").write_text(self.source, encoding="utf-8")


# -- scalar kernels: loop-heavy, pure, called only from tests ----------------


def _kpoly(name: str, rng: random.Random) -> Fn:
    c0, c1, c2 = rng.randint(1, 99), rng.randint(2, 9), rng.randint(1, 50)
    src = f"""fn {name}(n, x) {{
    let acc = {c0};
    let i = n;
    while (i > 0) {{
        acc = acc + i * i * {c1} + i * x - {c2};
        i = i - 1;
    }}
    return acc;
}}
"""

    def py(n, x):
        acc, i = c0, n
        while i > 0:
            acc = wrap(wrap(wrap(acc + wrap(wrap(i * i) * c1)) + wrap(i * x)) - c2)
            i = wrap(i - 1)
        return acc

    return Fn(name, src, py)


def _kmix(name: str, rng: random.Random) -> Fn:
    c1, c2, c3 = rng.randint(3, 97), rng.randint(5003, 20011), rng.randint(1, 99)
    src = f"""fn {name}(n, x) {{
    let acc = x;
    let i = 0;
    while (i < n) {{
        acc = (acc * {c1} + i) % {c2};
        i = i + 1;
    }}
    return acc + {c3};
}}
"""

    def py(n, x):
        acc, i = x, 0
        while i < n:
            acc = mod(wrap(wrap(acc * c1) + i), c2)
            i = wrap(i + 1)
        return wrap(acc + c3)

    return Fn(name, src, py)


def _kbranch(name: str, rng: random.Random) -> Fn:
    c1, c2 = rng.randint(2, 9), rng.randint(1, 40)
    src = f"""fn {name}(n, x) {{
    let acc = 0;
    let i = n;
    while (i > 0) {{
        if (i % 3 == 0) {{
            acc = acc + x * {c1};
        }} else {{
            acc = acc - i + {c2};
        }}
        i = i - 1;
    }}
    return acc;
}}
"""

    def py(n, x):
        acc, i = 0, n
        while i > 0:
            if mod(i, 3) == 0:
                acc = wrap(acc + wrap(x * c1))
            else:
                acc = wrap(wrap(acc - i) + c2)
            i = wrap(i - 1)
        return acc

    return Fn(name, src, py)


# -- cheap scalar helpers ------------------------------------------------------
#
# Each returns (Fn, args) with args chosen so that a mutant's fate (killed or
# surviving) follows from the shape, not from the seed's values.


def _h_lin(name, rng):
    c1 = rng.randint(2, 9)
    src = f"fn {name}(a, b) {{\n    return a * {c1} + b;\n}}\n"
    return Fn(name, src, lambda a, b: wrap(wrap(a * c1) + b)), (rng.randint(1, 50), rng.randint(1, 50))


def _h_step(name, rng):
    c1, c2, c3 = rng.randint(20, 60), rng.randint(2, 9), rng.randint(1, 9)
    src = f"""fn {name}(x) {{
    if (x < {c1}) {{
        return x * {c2};
    }}
    return x - {c3};
}}
"""
    return Fn(name, src, lambda x: wrap(x * c2) if x < c1 else wrap(x - c3)), (c1,)


def _h_half(name, rng):
    c1, c2 = rng.randint(10, 40), rng.randint(3, 9)
    k = rng.randint(3, c2)
    src = f"fn {name}(x) {{\n    return (x + {c1}) / {c2};\n}}\n"
    return Fn(name, src, lambda x: div(wrap(x + c1), c2)), (-k * c2 - c1,)


def _h_negabs(name, rng):
    src = f"""fn {name}(x) {{
    if (x > 0) {{
        return -x;
    }}
    return x;
}}
"""
    return Fn(name, src, lambda x: wrap(-x) if x > 0 else x), (rng.randint(2, 500),)


def _h_mod(name, rng):
    c1, c2 = rng.randint(5, 30), rng.randint(1, 30)
    src = f"fn {name}(x) {{\n    return x % {c1} + {c2};\n}}\n"
    return Fn(name, src, lambda x: wrap(mod(x, c1) + c2)), (c1 + rng.randint(1, c1 - 1),)


def _h_max3(name, rng):
    src = f"""fn {name}(a, b, c) {{
    let m = a;
    if (b > m) {{
        m = b;
    }}
    if (c > m) {{
        m = c;
    }}
    return m;
}}
"""
    a = rng.randint(1, 30)
    b = a + rng.randint(1, 30)
    c = b + rng.randint(1, 30)
    return Fn(name, src, lambda a, b, c: max(a, b, c)), (a, b, c)


def _h_avg(name, rng):
    src = f"fn {name}(a, b) {{\n    return (a + b) / 2;\n}}\n"
    return Fn(name, src, lambda a, b: div(wrap(a + b), 2)), (rng.randint(3, 90), rng.randint(3, 90))


def _h_dist(name, rng):
    src = f"""fn {name}(a, b) {{
    if (a > b) {{
        return a - b;
    }}
    return b - a;
}}
"""
    b = rng.randint(1, 50)
    return Fn(name, src, lambda a, b: wrap(a - b) if a > b else wrap(b - a)), (b + rng.randint(1, 50), b)


_HELPERS = (_h_lin, _h_step, _h_half, _h_negabs, _h_mod, _h_max3, _h_avg, _h_dist)


def _helpers(count: int, rng: random.Random) -> list[tuple[Fn, tuple]]:
    out = []
    for i in range(count):
        template = _HELPERS[i % len(_HELPERS)]
        out.append(template(f"h{i:02d}_{template.__name__[3:]}", rng))
    return out


def _call(fn: Fn, args) -> str:
    return f"{fn.name}({', '.join(str(a) for a in args)})"


def _assert_call(fn: Fn, args) -> str:
    return f"    assert({_call(fn, args)} == {fn.py(*args)});\n"


def _test(name: str, body: str) -> str:
    return f"fn {name}() {{\n{body}}}\n"


# -- workloads -----------------------------------------------------------------


def hot_kernels(seed: int) -> tuple[str, list[str]]:
    """A scaled-up `bench_expensive`: four scalar kernels, 24 cheap helpers.

    Every test calls two kernels with arguments from a small shared set, and
    each helper is asserted in exactly one test, after the kernel calls.  Each
    kernel also has a light test that sorts first among its covering tests,
    so mutants that loop forever hit the step limit on a small budget.
    """
    rng = random.Random(f"hot-kernels/{seed}")
    kinds = (_kpoly, _kmix, _kbranch, _kpoly)
    trips = (225, 300, 330, 240)
    kernels = [kind(f"k{j}_{kind.__name__[2:]}", rng) for j, kind in enumerate(kinds)]
    xs = [rng.randint(2, 60) for _ in range(3)]
    helpers = _helpers(24, rng)
    parts = [k.source for k in kernels] + [h.source for h, _ in helpers]
    for j, k in enumerate(kernels):
        parts.append(_test(f"test_a_{k.name}", _assert_call(k, (trips[j], xs[0]))))
    heavy = 8
    for t in range(heavy):
        body = ""
        for j in (t % 4, (t + 1) % 4):
            body += _assert_call(kernels[j], (trips[j], xs[(t + j) % 3]))
        for h, args in helpers[t::heavy]:
            body += _assert_call(h, args)
        parts.append(_test(f"test_h{t:02d}", body))
    return "\n".join(parts), [k.name for k in kernels]


def _blend(name: str, rng: random.Random) -> Fn:
    c1, c2, c3 = rng.randint(1, 99), rng.randint(1009, 9973), rng.randint(1, 99)
    src = f"""fn {name}(a, bias) {{
    let i = 1;
    while (i < len(a)) {{
        a[i] = (a[i] + a[i - 1] * gain + bias + {c1}) % {c2};
        i = i + 1;
    }}
    let cs = a[len(a) - 1] + {c3};
    checksum = cs;
    return cs;
}}
"""

    def py(a, bias, g):
        for i in range(1, len(a)):
            a[i] = mod(wrap(wrap(wrap(a[i] + wrap(a[i - 1] * g)) + bias) + c1), c2)
        return wrap(a[-1] + c3)

    return Fn(name, src, py)


def _score(name: str, rng: random.Random) -> Fn:
    c0, c1 = rng.randint(1, 99), rng.randint(101, 997)
    src = f"""fn {name}(a, b) {{
    let acc = {c0};
    let i = 0;
    while (i < len(a)) {{
        acc = acc + a[i] * b[i] % {c1} + gain;
        i = i + 1;
    }}
    return acc;
}}
"""

    def py(a, b, g):
        acc = c0
        for i in range(len(a)):
            acc = wrap(wrap(acc + mod(wrap(a[i] * b[i]), c1)) + g)
        return acc

    return Fn(name, src, py)


def _seed_head(name: str, rng: random.Random) -> Fn:
    c1 = rng.randint(2, 9)
    src = f"""fn {name}(a, v) {{
    a[0] = v * {c1} + 1;
    return 0;
}}
"""

    def py(a, v):
        a[0] = wrap(wrap(v * c1) + 1)
        return 0

    return Fn(name, src, py)


def _bias_for(name: str, rng: random.Random) -> Fn:
    c1 = rng.randint(2, 9)
    src = f"fn {name}(level) {{\n    return level * {c1} + 1;\n}}\n"
    return Fn(name, src, lambda level: wrap(wrap(level * c1) + 1))


def _build_array(var: str, cells: int, p: int, q: int, m: int) -> tuple[str, list[int]]:
    src = (
        f"    let {var} = [];\n    let i{var} = 0;\n    while (i{var} < {cells}) {{\n"
        f"        push({var}, (i{var} * {p} + {q}) % {m});\n        i{var} = i{var} + 1;\n    }}\n"
    )
    return src, [mod(wrap(wrap(i * p) + q), m) for i in range(cells)]


def array_state(seed: int) -> tuple[str, list[str]]:
    """Array kernels that read a global, write a global and mutate an argument.

    `blend*` rewrites its array argument in place, reads `gain` and writes
    `checksum`; `score*` reads two arrays and `gain`.  Tests build the
    arrays inline, then cheap producers (`seed_head*`, `bias_for*`) shape
    the kernels' inputs, so a producer mutant changes the key and misses.
    """
    rng = random.Random(f"array-state/{seed}")
    cells = 200
    gain = rng.randint(2, 9)
    blends = [_blend(f"blend{j}", rng) for j in range(2)]
    scores = [_score(f"score{j}", rng) for j in range(2)]
    heads = [_seed_head(f"seed_head{j}", rng) for j in range(2)]
    biases = [_bias_for(f"bias_for{j}", rng) for j in range(2)]
    helpers = _helpers(8, rng)
    parts = [f"global gain = {gain};\nglobal checksum = 0;\n"]
    parts += [f.source for f in blends + scores + heads + biases] + [h.source for h, _ in helpers]

    def fresh(var):
        return _build_array(var, cells, rng.randint(3, 97), rng.randint(0, 99), rng.randint(211, 997))

    for j in range(2):
        src, a = fresh("a")
        bias = rng.randint(1, 30)
        src += f"    assert({blends[j].name}(a, {bias}) == {blends[j].py(a, bias, gain)});\n"
        parts.append(_test(f"test_a_{blends[j].name}", src))
        src, a = fresh("a")
        src += f"    assert({scores[j].name}(a, a) == {scores[j].py(a, a, gain)});\n"
        parts.append(_test(f"test_a_{scores[j].name}", src))
    heavy = 4
    for t in range(heavy):
        j = t % 2
        src_a, a = fresh("a")
        src_b, b = fresh("b")
        v, level, idx = rng.randint(1, 99), rng.randint(1, 4), rng.randrange(1, cells)
        heads[j].py(a, v)
        bias = biases[j].py(level)
        cs = blends[j].py(a, bias, gain)
        body = src_a + src_b + f"    {heads[j].name}(a, {v});\n"
        body += f"    assert({blends[j].name}(a, {biases[j].name}({level})) == {cs});\n"
        body += f"    assert(a[{idx}] == {a[idx]});\n    assert(checksum == {cs});\n"
        body += f"    assert({scores[j].name}(a, b) == {scores[j].py(a, b, gain)});\n"
        for h, args in helpers[t::heavy]:
            body += _assert_call(h, args)
        parts.append(_test(f"test_h{t:02d}", body))
    return "\n".join(parts), [f.name for f in blends + scores]


def _rsum(name: str, rng: random.Random) -> Fn:
    c0, c1 = rng.randint(1, 99), rng.randint(2, 9)
    src = f"""fn {name}(n) {{
    if (n <= 0) {{
        return {c0};
    }}
    return n * {c1} + {name}(n - 1);
}}
"""

    def py(n):
        acc = c0
        while n > 0:
            acc = wrap(acc + wrap(n * c1))
            n -= 1
        return acc

    return Fn(name, src, py)


def _fibish(name: str, rng: random.Random) -> Fn:
    c0 = rng.randint(1, 9)
    src = f"""fn {name}(n) {{
    if (n < 2) {{
        return n + {c0};
    }}
    return {name}(n - 1) + {name}(n - 2);
}}
"""

    def py(n):
        a, b = c0, 1 + c0  # values at 0 and 1
        for _ in range(n):
            a, b = b, wrap(a + b)
        return a

    return Fn(name, src, py)


def _loud(name: str, rng: random.Random) -> Fn:
    c0, c1 = rng.randint(1, 99), rng.randint(101, 997)
    src = f"""fn {name}(n, x) {{
    let acc = {c0};
    let i = n;
    while (i > 0) {{
        acc = acc + i * x % {c1};
        i = i - 1;
    }}
    print(acc);
    return acc;
}}
"""
    return Fn(name, src, None)


def _shaky(name: str, rng: random.Random) -> Fn:
    c1 = rng.randint(101, 997)
    src = f"""fn {name}(n, x) {{
    let acc = 0;
    let i = 0;
    while (i < n) {{
        acc = acc + (i + x) % {c1} + rand(1);
        i = i + 1;
    }}
    return acc;
}}
"""

    def py(n, x):
        acc = 0
        for i in range(n):
            acc = wrap(acc + mod(wrap(i + x), c1))  # rand(1) is always 0
        return acc

    return Fn(name, src, py)


def uncached(seed: int) -> tuple[str, list[str]]:
    """Recursion and heavy functions that reach `print` or `rand`.

    The heavy loops print or draw `rand(1)` (always 0), so determinacy
    analysis excludes them whatever they cost; the recursive functions are
    deterministic but their mean cost per call stays far below tau.  Nothing
    is memoized, so the memo-on run does the same work as the memo-off run.
    `loud*` results are never asserted: its mutants survive and run every
    covering test.
    """
    rng = random.Random(f"uncached/{seed}")
    rsums = [_rsum(f"rsum{j}", rng) for j in range(4)]
    fibs = [_fibish(f"fib{j}", rng) for j in range(2)]
    louds = [_loud(f"loud{j}", rng) for j in range(2)]
    shakies = [_shaky(f"shaky{j}", rng) for j in range(2)]
    helpers = _helpers(16, rng)
    parts = [f.source for f in rsums + fibs + louds + shakies] + [h.source for h, _ in helpers]
    heavy = 8
    for t in range(heavy):
        body = _assert_call(rsums[t % 4], (24 + t % 4,))
        body += _assert_call(fibs[t % 2], (10,))
        body += f"    {_call(louds[t % 2], (40, rng.randint(2, 99)))};\n"
        body += _assert_call(shakies[t % 2], (40, rng.randint(2, 99)))
        for h, args in helpers[t::heavy]:
            body += _assert_call(h, args)
        parts.append(_test(f"test_u{t:02d}", body))
    return "\n".join(parts), []


def tiny(seed: int) -> tuple[str, list[str]]:
    """A few-millisecond project for warming a fresh process."""
    rng = random.Random(f"tiny/{seed}")
    k = _kpoly("k0_poly", rng)
    helpers = _helpers(3, rng)
    body = _assert_call(k, (40, 3)) + "".join(_assert_call(h, a) for h, a in helpers)
    parts = [k.source] + [h.source for h, _ in helpers] + [_test("test_t00", body)]
    return "\n".join(parts), [k.name]


# name -> (generator, tau in microseconds, candidate limit, workers).  tau and
# the limit are explicit so the memoized set does not depend on machine
# speed: each workload's intended kernels should clear tau by 10x and every
# other deterministic function stay 10x below it; each run prints both
# margins as measured by the pipeline's own profile.
WORKLOADS: dict[str, tuple[Callable, int, int, int]] = {
    "array-state": (array_state, 250, 4, 1),
    "uncached": (uncached, 5000, 4, 1),
    "hot-kernels-par": (hot_kernels, 400, 4, 2),
}
WARM_UP = "tiny"  # not benchmarked: warms each fresh process


def generate(workload: str, seed: int) -> Project:
    gen, tau_us, limit, workers = (tiny, 300, 1, 1) if workload == WARM_UP else WORKLOADS[workload]
    source, intended = gen(seed)
    return Project(workload, seed, source, intended, tau_us, limit, workers)
