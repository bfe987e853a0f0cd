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


def test_cli_bad_step_limit_factor_rejected_before_any_stage(tmp_path, capsys):
    proj = tmp_path / "proj"
    shutil.copytree(corpus_path("bench_expensive"), proj)
    prof = tmp_path / "profile.json"
    assert main(["profile", str(proj), "--fake-time", "-o", str(prof)]) == 0
    db = tmp_path / "memo.db"
    argv = [
        "memoize", str(proj), "--fake-time", "--tau", "1000steps",
        "--profile", str(prof), "--step-limit-factor", "0", "-o", str(db),
    ]
    assert main(argv) == 1
    assert not db.exists()
    assert "step_limit_factor must be >= 2" in capsys.readouterr().err
    art = tmp_path / "artifacts"
    cases = [
        (["--step-limit-factor", "1"], "step_limit_factor must be >= 2"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--tau", "bogus"], "bad tau 'bogus'"),
        (["--limit", "0%"], "percent limit out of range"),
        (["--limit", "nan%"], "percent limit out of range"),
        (["--profile-reps", "-3"], "profile reps must be >= 1"),
        ([], "unknown tau mode 'men'"),  # from memomut.toml, which bypasses argparse
    ]
    for flags, message in cases:
        if not flags:
            (proj / "memomut.toml").write_text("tau_mode = men\n")
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
    for key in ("all_tests", "time_rand_only"):
        (proj / "memomut.toml").write_text(f"{key} = ture\n")
        assert main(["pipeline", str(proj), "--artifact-dir", str(art)]) == 1, key
        assert not art.exists(), key
        assert "bad " in capsys.readouterr().err, key


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    proj = _sample_project(tmp_path)
    art = tmp_path / "artifacts"
    (proj / "memomut.toml").write_text("seed = 3\ntua = 1ms\n")
    assert main(["pipeline", str(proj), "--artifact-dir", str(art)]) == 1
    assert not art.exists()
    assert "unknown setting in memomut.toml: tua" in capsys.readouterr().err
    # Every key some subcommand reads is accepted by every subcommand,
    # spelled with '_' or '-'.
    (proj / "memomut.toml").write_text(
        "seed = 3\nfake-time = yes\ntau = 1000steps\nlimit = 20%\ntau_mode = mean\n"
        "time_rand_only = no\nprofile_reps = 1\nstep_limit_factor = 10\nworkers = 1\n"
        "all_tests = off\nartifact_dir = elsewhere\n"
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
    doc = json.loads(pool.read_text())
    del doc["mutants"][0]["op"]
    pool.write_text(json.dumps(doc))
    assert main(["run", str(proj), "--mutants", str(pool)]) == 1
    assert f"{pool}: malformed artifact: KeyError: 'op'" in capsys.readouterr().err
    pool.write_text(json.dumps({"fingerprint": doc["fingerprint"], "mutants": 5}))
    assert main(["run", str(proj), "--mutants", str(pool)]) == 1
    assert f"{pool}: malformed artifact: TypeError" in capsys.readouterr().err


# -- CLI exit codes (subprocess, to observe real process behavior) ----------


# The child imports the same memomut as this process, installed or not.
_SRC = str(Path(memomut.__file__).resolve().parents[1])


def _cli(*argv, cwd=None):
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "memomut.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": _SRC + os.pathsep + path if path else _SRC},
    )


def test_cli_version():
    r = _cli("--version")
    assert r.returncode == 0
    assert "schema 2" in r.stdout


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
