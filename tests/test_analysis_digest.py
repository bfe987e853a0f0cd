"""The static analysis's output, locked.

`bundle_to_json` of every corpus program, `edges.mini` and `limits.mini`,
with and without `time_rand_only`, is hashed and compared with digests
recorded from an earlier checkout, so a rewrite of the analysis that
changes any call edge, closure, effect, nondeterminism reason or warning
shows up here.

To re-record against another checkout:
    PYTHONPATH=<checkout>/src:tests python tests/test_analysis_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from memomut import corpus_names, corpus_path
from memomut.analysis import analyze_program, bundle_to_json
from memomut.project import load_project

HERE = Path(__file__).parent

# (program, time_rand_only) -> sha256 of its key-sorted bundle_to_json.
EXPECTED = {
    ('bench_expensive', False): 'f7fe2d55d74022e8c1e5296987d9c80397ac5fda8b9437b9d42a43a429d7c8e5',
    ('bench_expensive', True): 'b380ac2468306fbff8c37b017472c3a25f5405abe34dd77cd15081cdc0a0e519',
    ('fib', False): 'd093a52706fac74ce6d864c3b44825ee4f2cff41b2462fe7e120a3edb29390d4',
    ('fib', True): 'cf6f429311d0e2c77db6ad22160416ba2b7e056a3e750eb290591f1b707ed564',
    ('globals', False): '4521693b1ff6accaac0aec50d52262289f44c9cd0bbd2da9f036b20aabfc2304',
    ('globals', True): '057af30a5201d815eb1b6aa1ebe7a5f1cfa42a8a38f7c23eab86c82479d81714',
    ('indirect', False): 'de7258484620fb0393b7773b3fbb64f12f86d371cff8b8ffceb7acc5507791d4',
    ('indirect', True): '7f7a83d8764acf94ba4ef496b23633ecf2b2f07af5f0e6f2b6decee9ba09ad7c',
    ('matrix', False): '002e4e248bcecc86d83f47eec55e7d76471438c483ca911b45c5d26c124678f6',
    ('matrix', True): 'b5ebe26f284d104ce5b1f442017dc24982bae55aa5e8f25c3011bd5f24df9595',
    ('nondet', False): '34ce0a50b8e4317040312665041115c41b38296ee8c85401c5fda4e4c5c839c3',
    ('nondet', True): '6511b8b314cd7c3f3f647cdc7485286ba3f9b67bc7b87e9383375490063e6cc8',
    ('printcase', False): '1c690269b153214751dd1c404a87f54b4b42d8c6847031556777e4805ad40d21',
    ('printcase', True): 'ee3510c2524ea945cf7808be4b7a9b3bfb150317d943aca1b41143ac14e3df4f',
    ('randarg', False): 'ac1ce4d725fbb5b97de0ad457feb8c351197914ef97a08c6e5cc495f9bc3d364',
    ('randarg', True): '254b5bd6d3eedaa232d36d30ec5a30b9cda6c9846af61028373327234533fcab',
    ('sample', False): 'cdcb1e47d1c067576545ae8f2fa39d1ae7e75770a8ef04f515d4ddf1dc520c68',
    ('sample', True): '70b5286a50dece5fdd5fd0e74d8432a288c99e6d82b565c8cd7b6fea3bb34ad0',
    ('strings', False): '88285fe4fd0e02c99d6a9959c6bdd1a00ed56ac6b44650acb39f3e94a429af51',
    ('strings', True): '8ddbf3b02d89aed2467ee322f3fdbe2b865a920b3fa3548af339c6cd1f907e92',
    ('edges', False): '00f28ec567a55916d08e29bdaf70b65cc74f51d02b7ff956eb94d8b88460355b',
    ('edges', True): 'ceac43a44edf29b2cf6674553d12dbfae533216bf5137466e736b5130d619f2e',
    ('limits', False): '5c441c62c001a444bc5bd06420dd2fb6cc023efb27761d07a8bd35805184d5fb',
    ('limits', True): '90cf557dbe95c8af7cbe9b7e230187de0acefa9e4411a0098ca73cb873332491',
}


def _programs() -> dict[str, Path]:
    return {
        **{name: corpus_path(name) for name in corpus_names()},
        "edges": HERE / "edges.mini",
        "limits": HERE / "limits.mini",
    }


def digests() -> dict[tuple[str, bool], str]:
    out = {}
    for name, path in _programs().items():
        program = load_project(path)
        for time_rand_only in (False, True):
            doc = bundle_to_json(analyze_program(program, time_rand_only=time_rand_only))
            text = json.dumps(doc, sort_keys=True)
            out[(name, time_rand_only)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_analysis_output_matches_the_recorded_digests():
    assert digests() == EXPECTED


if __name__ == "__main__":
    for key, digest in digests().items():
        print(f"    {key!r}: {digest!r},")
