"""Name resolution, locked.

For every corpus program, `edges.mini`, `limits.mini` and the benchmark
workloads at seeds 0 and 5, the parser's scope decisions are dumped and
hashed: each function's `nslots`, each `Name`'s node id, identifier,
`is_global` and slot, each `Let`'s slot, and each `Call`'s target name,
`is_builtin` and whether it is direct.  The digests were recorded from
an earlier checkout, so a rewrite of the parser that moves any slot or
changes how any name or call is bound shows up here.

To re-record against another checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_parse_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from memomut import corpus_names, corpus_path
from memomut.lang.ast import Call, Let, Name, walk
from memomut.lang.parser import parse
from memomut.project import load_project

from test_bench_flags import workloads

HERE = Path(__file__).parent

# program -> sha256 of its resolution dump.
EXPECTED = {
    'bench_expensive': 'cd84aea375bfb14e72cba9e42536ed08473e910bd4e5650a336b0c8b954b5334',
    'fib': '0cfef9de50c72b5a7a94135d373a3479bcf881febb98cf00caf7e4d4f7d16277',
    'globals': 'f3230ef363479d5dbf6380f4e69e8241be5f4af04698ce024336e3470bf3c9a5',
    'indirect': 'ac0339d85d2a62fe7821c5b6f7fd0c40d55cc3783b09dc8d00e2d71104f407c3',
    'matrix': '6afa3cd725d10e7a12acd0580d2dbad027e855f51ffe784fb5c308d9782f3158',
    'nondet': '8e5ca0f52da69820eb676061c000ee36a6b3d9741c1df96a6b4e1efba61ea5c0',
    'printcase': '63bae812d34acbdff841cf89bdd8f304b6bc9d3817aef9d4f304af131babbfa1',
    'randarg': 'd462b6cc8aee0b264461c6e6251d97e8867504f7f04bfcc14e02544fbc24acb2',
    'sample': '1b5db3b40b45710fccedb285710d4a84dcd13e857d4fb0c4e9f9aba96d48666e',
    'strings': 'cecbc24535a845897cd9d6aa79200e66054ab5572177a44f60a196ba5beb8ec5',
    'edges': '9830a46cd3d0fbfeaccf1bae911f4a4543fc5edb23808502b2d85d758590ebf4',
    'limits': '7a7784e288a69b04c989c1c541d7fb20424d4d61571467f689ae81a465d250f3',
    'array-state-0': 'a9859286030072bfe90f5adc9bc20b22ec2c52ebc035652c0fe3d002820e7503',
    'array-state-5': 'a9859286030072bfe90f5adc9bc20b22ec2c52ebc035652c0fe3d002820e7503',
    'uncached-0': '2ebbbf4c5e07f0651edafb65cc3b73a2d7298e868c26b3061ab1e144b1d00d26',
    'uncached-5': '2ebbbf4c5e07f0651edafb65cc3b73a2d7298e868c26b3061ab1e144b1d00d26',
    'hot-kernels-par-0': '8017c18f9ba8c6686d19b9bb2794b57e256b36613231f354e37c3c47c04c2da2',
    'hot-kernels-par-5': 'f6821b4a8e01baabb0a6f12ff1cd0745775f98bedb4abd200908d4b2d5573294',
}


def _programs():
    for name in corpus_names():
        yield name, load_project(corpus_path(name))
    for name in ("edges", "limits"):
        yield name, load_project(HERE / f"{name}.mini")
    for w in workloads.WORKLOADS:
        for seed in (0, 5):
            yield f"{w}-{seed}", parse(workloads.generate(w, seed).source)


def resolution_dump(program) -> list:
    """Every scope decision the parser made, function by function."""
    out = []
    for fn in program.functions.values():
        nodes = []
        for n in walk(fn.body):
            t = type(n)
            if t is Name:
                nodes.append(["name", n.node_id, n.ident, n.is_global, n.slot])
            elif t is Let:
                nodes.append(["let", n.node_id, n.name, n.slot])
            elif t is Call:
                nodes.append(["call", n.node_id, n.name, n.is_builtin, n.callee is None])
        out.append([fn.name, fn.nslots, nodes])
    return out


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(json.dumps(resolution_dump(program)).encode()).hexdigest()
        for name, program in _programs()
    }


def test_resolution_matches_the_recorded_digests():
    assert digests() == EXPECTED


def test_a_function_named_like_a_builtin_is_called_instead_of_it():
    # No recorded program declares such a function, so the digests cannot see it.
    program = parse("fn len(a) { return 7; } fn test_a() { assert(len([1]) == 7); print(len([2])); }")
    calls = [n for n in walk(program.functions["test_a"].body) if type(n) is Call]
    assert [(c.name, c.is_builtin, c.callee) for c in calls] == [
        ("len", False, None),
        ("print", True, None),
        ("len", False, None),
    ]


if __name__ == "__main__":
    for key, digest in digests().items():
        print(f"    {key!r}: {digest!r},")
