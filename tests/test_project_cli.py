"""Project loading, config parsing, and the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import memomut
from memomut import corpus_path
from memomut.cli import main
from memomut.memo.db import load_db
from memomut.project import (
    ProjectError,
    load_config,
    load_project,
    parse_duration,
    parse_limit,
    parse_tau,
    project_sources,
)

from conftest import cancelling_flip_docs

# -- project loading --------------------------------------------------------


def test_sources_sorted_lexicographically(tmp_path):
    (tmp_path / "b.mini").write_text("fn b(){}\n")
    (tmp_path / "a.mini").write_text("fn a(){}\n")
    (tmp_path / "c.txt").write_text("ignored")
    assert [f.name for f in project_sources(tmp_path)] == ["a.mini", "b.mini"]


def test_concatenation_order_matters(tmp_path):
    (tmp_path / "01_lib.mini").write_text("fn helper(){ return 1; }\n")
    (tmp_path / "02_tests.mini").write_text("fn test_a(){ assert(helper() == 1); }\n")
    p = load_project(tmp_path)
    assert sorted(p.functions) == ["helper", "test_a"]
    assert p.tests == ["test_a"]


def test_single_file_project(tmp_path):
    f = tmp_path / "one.mini"
    f.write_text("fn test_a(){ assert(true); }\n")
    assert project_sources(f) == [f]
    load_project(f)


def test_project_errors(tmp_path):
    with pytest.raises(ProjectError):
        project_sources(tmp_path / "missing")
    with pytest.raises(ProjectError):
        project_sources(tmp_path)  # empty directory
    bad = tmp_path / "x.py"
    bad.write_text("")
    with pytest.raises(ProjectError):
        project_sources(bad)


# -- config -----------------------------------------------------------------


def test_config_parsing(tmp_path):
    (tmp_path / "memomut.toml").write_text(
        "# a comment\n"
        "tau = \"5ms\"\n"
        "limit = 2   # trailing comment\n"
        "seed = 7\n"
        "\n"
    )
    cfg = load_config(tmp_path)
    assert cfg == {"tau": "5ms", "limit": "2", "seed": "7"}


def test_config_missing_is_empty(tmp_path):
    assert load_config(tmp_path) == {}


def test_config_rejects_bad_lines(tmp_path):
    (tmp_path / "memomut.toml").write_text("just some words\n")
    with pytest.raises(ProjectError):
        load_config(tmp_path)


def test_parse_duration():
    assert parse_duration("1ms") == 1_000_000
    assert parse_duration("250us") == 250_000
    assert parse_duration("0.5s") == 500_000_000
    assert parse_duration("7ns") == 7
    for bad in ("1", "ms", "1 hour", "-1ms"):
        with pytest.raises(ValueError):
            parse_duration(bad)


def test_parse_tau():
    assert parse_tau("1ms") == (1_000_000, "ns")
    assert parse_tau("250us") == (250_000, "ns")
    assert parse_tau("1000steps") == (1000, "steps")
    assert parse_tau(" 7 steps ") == (7, "steps")
    for bad in ("1", "1.5steps", "steps", "-1steps", "1 step", "1ms steps"):
        with pytest.raises(ValueError):
            parse_tau(bad)


def test_parse_limit():
    assert parse_limit("20%") == (20.0, True)
    assert parse_limit("3") == (3.0, False)
    assert parse_limit(" 100% ") == (100.0, True)
    for bad in ("0%", "150%", "nan%", "0", "-2", "x"):
        with pytest.raises(ValueError):
            parse_limit(bad)
    for bad in ("1.5", "abc", "abc%"):
        with pytest.raises(ValueError, match=f"bad limit '{bad}'; expected a count"):
            parse_limit(bad)


# -- CLI (in-process) -------------------------------------------------------


def _sample_project(tmp_path):
    dst = tmp_path / "proj"
    shutil.copytree(corpus_path("sample"), dst)
    return dst


def test_cli_analyze_writes_json(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(proj), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert ["test_sum", "sum"] in doc["call_graph"]


def test_cli_stdout_default(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    assert main(["mutate", str(proj)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mutants"]


def test_cli_full_stage_chain(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    prof = tmp_path / "profile.json"
    pool = tmp_path / "mutants.json"
    db = tmp_path / "memo.db"
    base = tmp_path / "base.json"
    memo = tmp_path / "memo.json"
    cmp_json = tmp_path / "cmp.json"

    assert main(["profile", str(proj), "--fake-time", "-o", str(prof)]) == 0
    assert main(["mutate", str(proj), "-o", str(pool)]) == 0
    assert (
        main(
            [
                "memoize", str(proj), "--fake-time",
                "--profile", str(prof), "--tau", "1us", "-o", str(db), "--dump-json",
            ]
        )
        == 0
    )
    assert db.exists() and (tmp_path / "memo.db.json").exists()
    assert (
        main(["run", str(proj), "--fake-time", "--mutants", str(pool), "-o", str(base)])
        == 0
    )
    assert (
        main(
            [
                "run", str(proj), "--fake-time",
                "--mutants", str(pool), "--memo", str(db), "-o", str(memo),
            ]
        )
        == 0
    )
    assert main(["report", str(base), str(memo), "-o", str(cmp_json)]) == 0
    text = capsys.readouterr().out
    assert "mutation score" in text and "speed-up" in text
    block = json.loads(cmp_json.read_text())
    base_doc = json.loads(base.read_text())
    memo_doc = json.loads(memo.read_text())
    assert base_doc["score"] == memo_doc["score"] == block["score"]
    assert memo_doc["memo_enabled"] and not base_doc["memo_enabled"]


def test_cli_pipeline_writes_artifacts(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    art = tmp_path / "artifacts"
    assert (
        main(
            [
                "pipeline", str(proj), "--fake-time",
                "--tau", "1us", "--artifact-dir", str(art),
            ]
        )
        == 0
    )
    for name in (
        "analysis.json",
        "profile.json",
        "mutants.json",
        "memo.db",
        "base.json",
        "memo.json",
        "comparison.json",
    ):
        assert (art / name).exists(), name


def test_cli_pipeline_on_a_single_file(tmp_path, capsys):
    # Without --artifact-dir, the artifacts go beside the file.
    src = tmp_path / "fib.mini"
    shutil.copyfile(corpus_path("fib") / "fib.mini", src)
    assert main(["pipeline", str(src), "--fake-time"]) == 0
    art = tmp_path / ".memomut"
    for name in ("analysis.json", "profile.json", "mutants.json", "memo.db", "base.json", "memo.json"):
        assert (art / name).exists(), name


def test_cli_pipeline_with_no_test_run_reports_no_speedup(tmp_path, capsys):
    # No mutant, so neither run runs a test: their wall times are overhead.
    src = tmp_path / "p.mini"
    src.write_text("fn test_a() { assert(true); }\n")
    assert main(["pipeline", str(src), "--fake-time"]) == 0
    comparison = json.loads((tmp_path / ".memomut" / "comparison.json").read_text())
    assert comparison["speedup_pct"] == 0.0 and comparison["base_steps"] == 0
    assert "speed-up          0.00%" in capsys.readouterr().out


def test_cli_pipeline_step_tau_and_per_method_counts(tmp_path, capsys):
    proj = tmp_path / "proj"
    shutil.copytree(corpus_path("bench_expensive"), proj)
    art = tmp_path / "artifacts"
    argv = ["pipeline", str(proj), "--fake-time", "--tau", "1000steps", "--artifact-dir", str(art)]
    assert main(argv) == 0
    db = load_db(art / "memo.db")
    assert (db.tau, db.tau_unit) == (1000, "steps")
    assert sorted(db.tables) == ["cube_mix", "poly_sum", "weighted_sum"]
    memo = json.loads((art / "memo.json").read_text())
    comparison = json.loads((art / "comparison.json").read_text())
    assert comparison["per_method"] == memo["per_method"]
    for kind in ("hits", "misses", "gated"):
        per_method = sum(counts[kind] for counts in memo["per_method"].values())
        assert per_method == memo["totals"][kind]
    assert memo["totals"]["hits"] > 0 and memo["totals"]["gated"] > 0


def test_cli_default_tau_is_a_step_count(tmp_path, capsys):
    proj = tmp_path / "proj"
    shutil.copytree(corpus_path("bench_expensive"), proj)
    art = tmp_path / "artifacts"
    assert main(["pipeline", str(proj), "--fake-time", "--artifact-dir", str(art)]) == 0
    db = load_db(art / "memo.db")
    assert (db.tau, db.tau_unit) == (1000, "steps")
    assert sorted(db.tables) == ["cube_mix", "poly_sum", "weighted_sum"]


def test_cli_report_exits_3_on_cancelling_flips(tmp_path, capsys):
    base, memo = tmp_path / "base.json", tmp_path / "memo.json"
    base_doc, memo_doc = cancelling_flip_docs()
    base.write_text(json.dumps(base_doc))
    memo.write_text(json.dumps(memo_doc))
    assert main(["report", str(base), str(memo)]) == 3
    assert "verdicts differ for mutants 0, 1" in capsys.readouterr().err


def test_cli_bad_setting_rejected_before_any_stage(tmp_path, capsys):
    proj = tmp_path / "proj"
    shutil.copytree(corpus_path("bench_expensive"), proj)
    prof = tmp_path / "profile.json"
    assert main(["profile", str(proj), "--fake-time", "-o", str(prof)]) == 0
    db = tmp_path / "memo.db"
    argv = [
        "memoize", str(proj), "--fake-time", "--tau", "1000steps",
        "--profile", str(prof), "--limit", "0", "-o", str(db),
    ]
    assert main(argv) == 1
    assert not db.exists()
    assert "count limit must be positive" in capsys.readouterr().err
    art = tmp_path / "artifacts"
    cases = [
        (["--workers", "0"], "workers must be >= 1"),
        (["--tau", "bogus"], "bad tau 'bogus'"),
        (["--limit", "0%"], "percent limit out of range"),
        (["--limit", "nan%"], "percent limit out of range"),
        ([], "workers must be >= 1"),  # from memomut.toml, which bypasses argparse
    ]
    for flags, message in cases:
        if not flags:
            (proj / "memomut.toml").write_text("workers = 0\n")
        assert main(["pipeline", str(proj), *flags, "--artifact-dir", str(art)]) == 1, flags
        assert not art.exists(), flags
        assert message in capsys.readouterr().err, flags


def test_cli_reinvocation_stable_modulo_wall(tmp_path):
    proj = _sample_project(tmp_path)
    pool = tmp_path / "mutants.json"
    prof = tmp_path / "profile.json"
    main(["mutate", str(proj), "-o", str(pool)])
    main(["profile", str(proj), "--fake-time", "--seed", "5", "-o", str(prof)])
    outs = []
    # Twice profiling the suite again, then once reading the profile stage's file.
    for i, extra in enumerate([[], [], ["--profile", str(prof)]]):
        out = tmp_path / f"r{i}.json"
        main(["run", str(proj), "--fake-time", "--seed", "5", "--mutants", str(pool), "-o", str(out), *extra])
        doc = json.loads(out.read_text())
        doc.pop("wall_ns")
        for m in doc["mutants"]:
            m.pop("wall_ns")
        outs.append(doc)
    assert outs[0] == outs[1] == outs[2]


def test_cli_config_file_overridden_by_flags(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    (proj / "memomut.toml").write_text("seed = 1\nfake_time = true\n")
    prof = tmp_path / "p.json"
    assert main(["profile", str(proj), "-o", str(prof)]) == 0
    assert main(["profile", str(proj), "--seed", "2", "-o", str(prof)]) == 0


def test_cli_config_bool_values(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    prof = tmp_path / "p.json"
    for value in ("true", "FALSE", "yes", "no", "on", "Off", "1", "0"):
        (proj / "memomut.toml").write_text(f"fake_time = {value}\n")
        assert main(["profile", str(proj), "-o", str(prof)]) == 0, value
    art = tmp_path / "artifacts"
    for value in ("ture", "2", "", "y"):
        (proj / "memomut.toml").write_text(f"fake_time = {value}\n")
        assert main(["profile", str(proj), "-o", str(prof)]) == 1, value
        assert "bad fake-time" in capsys.readouterr().err, value
    (proj / "memomut.toml").write_text("time_rand_only = ture\n")
    assert main(["pipeline", str(proj), "--artifact-dir", str(art)]) == 1
    assert not art.exists()
    assert "bad time-rand-only" in capsys.readouterr().err


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    art = tmp_path / "artifacts"
    (proj / "memomut.toml").write_text("seed = 3\ntua = 1ms\n")
    assert main(["pipeline", str(proj), "--artifact-dir", str(art)]) == 1
    assert not art.exists()
    assert "unknown setting in memomut.toml: tua" in capsys.readouterr().err
    # Settings that were removed are unknown too, in either spelling.
    removed = {"tau_mode": "mean", "profile_reps": "1", "all_tests": "off", "step_limit_factor": "10"}
    for key, value in removed.items():
        for spelled in (key, key.replace("_", "-")):
            (proj / "memomut.toml").write_text(f"{spelled} = {value}\n")
            assert main(["pipeline", str(proj), "--artifact-dir", str(art)]) == 1, spelled
            assert not art.exists(), spelled
            assert f"unknown setting in memomut.toml: {spelled}\n" in capsys.readouterr().err, spelled
    # Every key some subcommand reads is accepted by every subcommand,
    # spelled with '_' or '-'.
    (proj / "memomut.toml").write_text(
        "seed = 3\nfake-time = yes\ntau = 1000steps\nlimit = 20%\n"
        "time_rand_only = no\nworkers = 1\nartifact_dir = elsewhere\n"
    )
    assert main(["mutate", str(proj), "-o", str(tmp_path / "m.json")]) == 0
    (proj / "memomut.toml").write_text("just some words\n")
    assert main(["mutate", str(proj)]) == 1
    assert "expected 'key = value'" in capsys.readouterr().err


def test_cli_report_rejects_swapped_reports(tmp_path, capsys):
    base, memo = tmp_path / "base.json", tmp_path / "memo.json"
    base_doc, memo_doc = cancelling_flip_docs()
    base.write_text(json.dumps(base_doc))
    memo.write_text(json.dumps(memo_doc))
    assert main(["report", str(memo), str(base)]) == 1
    assert "expected a memo-off report, then a memo-on report" in capsys.readouterr().err
    assert main(["report", str(base), str(base)]) == 1
    assert main(["report", str(memo), str(memo)]) == 1


def test_cli_profile_rejects_selection_flags(tmp_path):
    proj = _sample_project(tmp_path)
    for flags in (["--tau", "1ms"], ["--limit", "20%"], ["--tau-mode", "mean"], ["--time-rand-only"]):
        assert main(["profile", str(proj), *flags]) == 64, flags
    # analyze and mutate read neither the seed nor the clock.
    for command in ("analyze", "mutate"):
        for flags in (["--seed", "1"], ["--fake-time"]):
            assert main([command, str(proj), *flags]) == 64, (command, flags)


def test_cli_profile_of_another_program_rejected(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    fib_profile = tmp_path / "fib_profile.json"
    pool = tmp_path / "pool.json"
    assert main(["profile", str(corpus_path("fib")), "--fake-time", "-o", str(fib_profile)]) == 0
    assert main(["mutate", str(proj), "-o", str(pool)]) == 0
    out = tmp_path / "out"
    argv = ["run", str(proj), "--fake-time", "--mutants", str(pool), "--profile", str(fib_profile), "-o", str(out)]
    assert main(argv) == 2
    assert "profile fingerprint" in capsys.readouterr().err
    assert not out.exists()
    argv = ["memoize", str(proj), "--fake-time", "--profile", str(fib_profile), "-o", str(out)]
    assert main(argv) == 2
    assert "profile fingerprint" in capsys.readouterr().err
    assert not out.exists()


def test_cli_malformed_artifacts_exit_1(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["report", str(empty), str(empty)]) == 1
    assert f"{empty}: malformed artifact: KeyError: 'mutants'" in capsys.readouterr().err
    proj = _sample_project(tmp_path)
    pool = tmp_path / "pool.json"
    assert main(["mutate", str(proj), "-o", str(pool)]) == 0
    fresh = pool.read_text()
    doc = json.loads(fresh)
    del doc["mutants"][0]["op"]
    pool.write_text(json.dumps(doc))
    assert main(["run", str(proj), "--mutants", str(pool)]) == 1
    assert f"{pool}: malformed artifact: KeyError: 'op'" in capsys.readouterr().err
    pool.write_text(json.dumps({"fingerprint": doc["fingerprint"], "mutants": 5}))
    assert main(["run", str(proj), "--mutants", str(pool)]) == 1
    assert f"{pool}: malformed artifact: TypeError" in capsys.readouterr().err

    def run_with(index, key, value):
        """`memomut run`'s stderr, with one field of one mutant of a fresh pool replaced."""
        doc = json.loads(fresh)
        doc["mutants"][index][key] = value
        pool.write_text(json.dumps(doc))
        assert main(["run", str(proj), "--mutants", str(pool)]) == 1
        return capsys.readouterr().err

    assert f"{pool}: malformed artifact: TypeError: expected int, got '3'" in run_with(0, "node", "3")
    assert f"{pool}: malformed artifact: TypeError: expected str, got ['x']" in run_with(0, "fn", ["x"])
    assert f"{pool}: malformed artifact: ValueError: mutant id 0 appears twice" in run_with(1, "id", 0)
    # Well-formed, but naming no node or variant of the program.
    assert run_with(0, "node", 9999).startswith("memomut: mutant 0: node 9999 not in")
    assert run_with(0, "variant", 99).startswith("memomut: mutant 0: no ")

    pool.write_text(fresh)
    profile = tmp_path / "profile.json"
    assert main(["profile", str(proj), "-o", str(profile)]) == 0
    doc = json.loads(profile.read_text())
    next(iter(doc["tests"].values()))["steps"] = "5"
    profile.write_text(json.dumps(doc))
    for argv in (["run", str(proj), "--mutants", str(pool)], ["memoize", str(proj), "-o", str(tmp_path / "db")]):
        assert main([*argv, "--profile", str(profile)]) == 1
        assert f"{profile}: malformed artifact: TypeError: expected int, got '5'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bench_reports(tmp_path_factory):
    """base.json and memo.json of a bench_expensive pipeline, whose memo run
    counts hits and gated calls."""
    art = tmp_path_factory.mktemp("bench") / "artifacts"
    argv = ["pipeline", str(corpus_path("bench_expensive")), "--fake-time", "--artifact-dir", str(art)]
    assert main(argv) == 0
    return {name: json.loads((art / f"{name}.json").read_text()) for name in ("base", "memo")}


def _report(tmp_path, capsys, base_doc, memo_doc):
    """`memomut report` on the two documents: its exit code, stdout and stderr."""
    capsys.readouterr()
    base, memo = tmp_path / "base.json", tmp_path / "memo.json"
    base.write_text(json.dumps(base_doc))
    memo.write_text(json.dumps(memo_doc))
    code = main(["report", str(base), str(memo)])
    return (code, *capsys.readouterr())


def test_cli_report_recomputes_totals(tmp_path, capsys, bench_reports):
    base, memo = bench_reports["base"], bench_reports["memo"]
    code, table, _ = _report(tmp_path, capsys, base, memo)
    assert code == 0 and "cache hits" in table
    no_totals = {name: {**doc, "totals": {}} for name, doc in bench_reports.items()}
    assert _report(tmp_path, capsys, no_totals["base"], no_totals["memo"]) == (0, table, "")


def test_cli_report_ignores_the_stored_score(tmp_path, capsys, bench_reports):
    base, memo = bench_reports["base"], bench_reports["memo"]
    assert base["score"] != 0.5
    code, _, err = _report(tmp_path, capsys, {**base, "score": 0.5}, memo)
    assert (code, err) == (0, "")


def _first_row(mutant):
    return mutant["per_method"][min(mutant["per_method"])]


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: _first_row(m).pop("gated"),
        lambda m: _first_row(m).update(hits="1"),
        lambda m: m.update(status="skipped"),
        lambda m: m.update(steps="5"),
        lambda m: m.update(killing_test=7),
        lambda m: m.update(cause=7),
    ],
    ids=["count-missing", "count-string", "status", "steps-string", "killing-test-int", "cause-int"],
)
def test_cli_report_rejects_a_malformed_mutant(tmp_path, capsys, bench_reports, edit):
    memo = json.loads(json.dumps(bench_reports["memo"]))
    edit(next(m for m in memo["mutants"] if m["per_method"]))
    code, _, err = _report(tmp_path, capsys, bench_reports["base"], memo)
    assert code == 1
    assert f"{tmp_path / 'memo.json'}: malformed artifact" in err


@pytest.mark.parametrize(
    "field, value",
    [("fingerprint", "abc"), ("memo_enabled", "false"), ("memo_enabled", 0), ("per_method", "abc")],
)
def test_cli_report_rejects_a_malformed_report_field(tmp_path, capsys, bench_reports, field, value):
    base, memo = ({**bench_reports[name], field: value} for name in ("base", "memo"))
    code, _, err = _report(tmp_path, capsys, base, memo)
    assert code == 1
    assert f"{tmp_path / 'base.json'}: malformed artifact" in err


# -- CLI exit codes (subprocess, to observe real process behavior) ----------


# The child imports the same memomut as this process, installed or not.
_SRC = str(Path(memomut.__file__).resolve().parents[1])


def _python(*argv, cwd=None):
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": _SRC + os.pathsep + path if path else _SRC},
    )


def _cli(*argv, cwd=None):
    return _python("-m", "memomut.cli", *argv, cwd=cwd)


def test_python_m_memomut_runs_the_cli():
    r = _python("-m", "memomut", "--help")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: memomut")


def test_cli_version():
    r = _cli("--version")
    assert r.returncode == 0
    assert "schema 3" in r.stdout


_DB_ROUND_TRIP = """
import sys
import memomut.cli
from memomut.lang.parser import parse
from memomut.memo.db import MemoDB, MemoTable, OutputRecord, load_db, save_db
from memomut.memo.encoding import encode_key, program_fingerprint

program = parse("fn f(n){ return n; } fn test_a(){ assert(f(1) == 1); }")
table = MemoTable(fn="f", may_read=[], may_write=[], mut_args=[])
table.entries[encode_key([1], [])] = OutputRecord(ret=1, written_globals={}, post_args={}, output_steps=3)
db = MemoDB(fingerprint=program_fingerprint(program), tau=1, limit_value=1, limit_is_pct=False, tables={"f": table})
save_db(db, sys.argv[1])
assert load_db(sys.argv[1], program).tables["f"].entries == table.entries
print("_hashlib" in sys.modules)
"""


def test_memo_db_round_trip_loads_no_openssl(tmp_path):
    # `hashlib` would load OpenSSL's `_hashlib` into every process and raise
    # its peak memory by megabytes; the memo db's checksums come from `zlib`.
    r = _python("-c", _DB_ROUND_TRIP, str(tmp_path / "memo.db"))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_cli_usage_errors_exit_64():
    assert _cli().returncode == 64
    assert _cli("frobnicate").returncode == 64
    assert _cli("analyze").returncode == 64  # missing project argument
    assert _cli("analyze", "x", "--no-such-flag").returncode == 64


def test_cli_missing_project_exits_1(tmp_path):
    r = _cli("analyze", str(tmp_path / "nope"))
    assert r.returncode == 1
    assert "memomut:" in r.stderr


def test_cli_syntax_error_exits_1(tmp_path):
    bad = tmp_path / "bad.mini"
    bad.write_text("fn oops( {\n")
    assert _cli("analyze", str(bad)).returncode == 1


def test_cli_fingerprint_mismatch_exits_2(tmp_path):
    proj = _sample_project(tmp_path)
    prof = tmp_path / "p.json"
    db = tmp_path / "m.db"
    pool = tmp_path / "mutants.json"
    assert _cli("profile", str(proj), "--fake-time", "-o", str(prof)).returncode == 0
    assert (
        _cli(
            "memoize", str(proj), "--fake-time",
            "--profile", str(prof), "--tau", "1us", "-o", str(db),
        ).returncode
        == 0
    )
    assert _cli("mutate", str(proj), "-o", str(pool)).returncode == 0
    # Edit the source after the artifacts were generated.
    src = proj / "sample.mini"
    src.write_text(src.read_text().replace("return acc;", "return acc + 0;"))
    r = _cli("run", str(proj), "--fake-time", "--mutants", str(pool), "--memo", str(db))
    assert r.returncode == 2
    assert "fingerprint" in r.stderr.lower() or "different program" in r.stderr


def test_cli_corrupt_db_exits_1(tmp_path):
    proj = _sample_project(tmp_path)
    prof = tmp_path / "p.json"
    db = tmp_path / "m.db"
    pool = tmp_path / "mutants.json"
    _cli("profile", str(proj), "--fake-time", "-o", str(prof))
    _cli("memoize", str(proj), "--fake-time", "--profile", str(prof), "--tau", "1us", "-o", str(db))
    _cli("mutate", str(proj), "-o", str(pool))
    blob = bytearray(db.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    db.write_bytes(bytes(blob))
    r = _cli("run", str(proj), "--fake-time", "--mutants", str(pool), "--memo", str(db))
    assert r.returncode == 1
