"""Value encoding, memo-table recording, provisional filtering, persistence."""

from pathlib import Path

import pytest
from conftest import SMALL_TAU_NS, cached_pipeline
from hypothesis import given, strategies as st
from oracles import provisional_per_table, record_per_candidate
from test_bench_flags import workloads

from memomut import corpus_names, corpus_path
from memomut.analysis import analyze_program
from memomut.lang.interp import Runtime, run_test
from memomut.lang.parser import parse
from memomut.lang.values import UNIT, FnRef, deep_equal
from memomut.memo import builder
from memomut.memo.builder import LookupHooks, provisional_memoization, record_tables
from memomut.memo.db import (
    CorruptDB,
    Exclusion,
    FingerprintMismatch,
    MemoDB,
    MemoTable,
    OutputRecord,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    db_from_bytes,
    db_to_bytes,
    db_to_json,
    load_db,
    save_db,
)
from memomut.memo.encoding import (
    DecodeError,
    Reader,
    checksum64,
    encode_key,
    encode_value,
    program_fingerprint,
)
from memomut.profiler import ExpensivenessCriterion, profile_suite, select_candidates
from memomut.project import load_project


# -- encoding ---------------------------------------------------------------


def test_encode_examples():
    assert encode_value(1) == b"\x01" + (1).to_bytes(8, "big")
    assert encode_value(-1) == b"\x01" + b"\xff" * 8
    assert encode_value(True) == b"\x02\x01"
    assert encode_value("") == b"\x03\x00\x00\x00\x00"
    assert encode_value([]) == b"\x04\x00\x00\x00\x00"
    assert encode_value(UNIT) == b"\x06"
    assert encode_value(FnRef("f")) == b"\x05\x00\x00\x00\x01f"


def test_checksum64_vectors():
    # CRC-32 in the high half, Adler-32 in the low half; "123456789" is
    # CRC-32's standard check input, "Wikipedia" Adler-32's worked example.
    assert checksum64(b"") == 1
    assert checksum64(b"a") == 0xE8B7BE43_00620062
    assert checksum64(b"123456789") == 0xCBF43926_091E01DE
    assert checksum64(b"Wikipedia") == 0xADAAC02E_11E60398


def test_decode_rejects_garbage():
    with pytest.raises(DecodeError):
        Reader(b"\x07").value()
    with pytest.raises(DecodeError):
        Reader(b"\x01\x00").value()  # truncated int
    with pytest.raises(DecodeError):
        Reader(b"\x02\x05").value()  # bool byte out of range
    with pytest.raises(DecodeError):
        Reader(b"").value()


_values = st.recursive(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
    | st.booleans()
    | st.text(max_size=6)
    | st.just(UNIT)
    | st.builds(FnRef, st.text(min_size=1, max_size=4)),
    lambda children: st.lists(children, max_size=3),
    max_leaves=10,
)


@given(_values)
def test_encode_decode_round_trip(v):
    data = encode_value(v)
    r = Reader(data)
    back = r.value()
    assert r.offset == len(data)
    assert deep_equal(back, v) or back is v is UNIT


@given(st.lists(_values, max_size=3), st.lists(_values, max_size=3))
def test_encode_key_injective_on_args(a, b):
    ka = encode_key(a, [])
    kb = encode_key(b, [])
    same = len(a) == len(b) and all(deep_equal(x, y) for x, y in zip(a, b))
    assert (ka == kb) == same


def test_encode_key_separates_sections():
    # One argument vs one global with the same payload must differ.
    assert encode_key([1], []) != encode_key([], [("g", 1)])
    assert encode_key([], [("g", 1)]) != encode_key([], [("h", 1)])


def test_fingerprint_tracks_source_changes():
    a = parse("fn f(){ return 1; } fn test_a(){ f(); }")
    b = parse("fn f(){ return 2; } fn test_a(){ f(); }")
    assert program_fingerprint(a) != program_fingerprint(b)
    assert program_fingerprint(a) == program_fingerprint(parse("fn f()  {  return 1; } fn test_a(){ f(); }"))


# -- recording --------------------------------------------------------------


def _pipeline_for(src, seed=0, **kw):
    program = parse(src)
    runtime = Runtime(seed=seed, fake_time=True)
    profile = profile_suite(program, runtime=runtime)
    bundle = analyze_program(program, time_rand_only=kw.pop("time_rand_only", False))
    criterion = ExpensivenessCriterion(tau=kw.pop("tau", 0), limit_value=100.0)
    cands = select_candidates(profile, bundle.determinacy, criterion)
    raw = record_tables(program, bundle, cands, profile, criterion=criterion, runtime=runtime)
    final, counts = provisional_memoization(program, raw, profile, bundle.closure, runtime=runtime)
    return program, profile, raw, final, counts


FIB_SRC = """
fn fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
fn test_fib() { assert(fib(10) == 55); }
"""


def test_fib_table_has_one_entry_per_distinct_argument():
    _, _, raw, final, _ = _pipeline_for(FIB_SRC)
    table = raw.tables["fib"]
    assert len(table.entries) == 11  # fib(0) .. fib(10)
    assert table.recorded_from == {"test_fib"}
    assert "fib" in final.tables
    key10 = encode_key([10], [])
    assert table.entries[key10].ret == 55
    assert table.entries[key10].written_globals == {}


def test_recorded_output_steps_positive():
    _, _, raw, _, _ = _pipeline_for(FIB_SRC)
    steps = [rec.output_steps for rec in raw.tables["fib"].entries.values()]
    assert all(s > 0 for s in steps)
    # fib(10) costs more than fib(0).
    assert raw.tables["fib"].entries[encode_key([10], [])].output_steps > min(steps)


def test_record_captures_global_writes():
    src = (
        "global G = 0; "
        "fn f(n){ G = G + n; return G; } "
        "fn test_a(){ assert(f(2) == 2); assert(f(3) == 5); }"
    )
    _, _, raw, final, _ = _pipeline_for(src)
    table = raw.tables["f"]
    assert table.may_read == ["G"] and table.may_write == ["G"]
    # Same arg under different global values produces distinct keys.
    k1 = encode_key([2], [("G", 0)])
    k2 = encode_key([3], [("G", 2)])
    assert table.entries[k1].written_globals == {"G": 2}
    assert table.entries[k2].written_globals == {"G": 5}
    assert "f" in final.tables


def test_record_captures_argument_mutation():
    src = (
        "fn fill(a, v){ a[0] = v; push(a, v); } "
        "fn test_a(){ let a = [0]; fill(a, 7); assert(a[1] == 7); }"
    )
    _, _, raw, final, _ = _pipeline_for(src)
    table = raw.tables["fill"]
    assert table.mut_args == [0]
    rec = next(iter(table.entries.values()))
    assert rec.post_args == {0: [7, 7]}
    assert "fill" in final.tables


def test_conflicting_snapshots_flag_the_table():
    # Two different results for the same recorded entry state, with a
    # recorded call of another table nested inside the first: the exits
    # must close their own entries.  `test_aliased_arguments_record_
    # conflicting_results` reaches a conflict from a real program, but not
    # one with nested recorded exits, so drive the hooks directly here.
    from memomut.memo.builder import RecordHooks

    table = MemoTable(fn="f", may_read=[], may_write=[], mut_args=[])
    other = MemoTable(fn="g", may_read=[], may_write=[], mut_args=[])
    hooks = RecordHooks({"f": table, "g": other})

    class _S:
        globals = {}
        steps = 0

    hooks.on_call_enter("f", [1], _S)
    hooks.on_call_enter("g", [1], _S)
    hooks.on_call_exit("g", 5, _S)
    hooks.on_call_exit("f", 10, _S)
    hooks.on_call_enter("f", [1], _S)
    hooks.on_call_exit("f", 11, _S)
    assert hooks.conflicted == {"f"}


def test_aliased_arguments_record_conflicting_results():
    # The key encodes argument values, not their identity, so `f(x, x)` and
    # `f(y, z)` on equal fresh arrays share a key but return 1 and 0.
    src = (
        "fn f(a, b){ a[0] = 1; return b[0]; } "
        "fn test_a(){ let x = [0]; assert(f(x, x) == 1); "
        "let y = [0]; let z = [0]; assert(f(y, z) == 0); }"
    )
    _, _, raw, final, _ = _pipeline_for(src)
    assert "f" not in raw.tables and "f" not in final.tables
    assert raw.exclusions["f"] == Exclusion(reason="conflicted")


def _recording_programs():
    for name in corpus_names():
        yield name, load_project(corpus_path(name))
    for name in ("edges", "limits"):
        yield name, parse((Path(__file__).parent / f"{name}.mini").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tau, tau_unit", [(1, "steps"), (SMALL_TAU_NS, "ns")])
def test_record_tables_matches_a_run_per_candidate(tau, tau_unit, seed):
    """One run per covering test records what one run per candidate and
    test records: the same bytes and the same recorded-from tests."""
    for name, program in _recording_programs():
        runtime = Runtime(seed=seed, fake_time=True)
        profile = profile_suite(program, runtime=runtime)
        bundle = analyze_program(program)
        criterion = ExpensivenessCriterion(tau=tau, tau_unit=tau_unit, limit_value=100.0)
        cands = select_candidates(profile, bundle.determinacy, criterion)
        got = record_tables(program, bundle, cands, profile, criterion=criterion, runtime=runtime)
        want = record_per_candidate(program, bundle, cands, profile, criterion, runtime)
        assert db_to_bytes(got) == db_to_bytes(want), name
        assert {fn: t.recorded_from for fn, t in got.tables.items()} == {
            fn: t.recorded_from for fn, t in want.tables.items()
        }, name


def test_record_runs_each_covering_test_once(monkeypatch):
    pipe = cached_pipeline("bench_expensive", tau=1000, tau_unit="steps")
    runs = []
    inner = builder.run_test

    def counted(program, test, *args, **kwargs):
        runs.append(test)
        return inner(program, test, *args, **kwargs)

    monkeypatch.setattr(builder, "run_test", counted)
    raw = record_tables(
        pipe.program, pipe.bundle, pipe.candidates, pipe.profile,
        criterion=pipe.criterion, runtime=pipe.runtime,
    )
    assert len(pipe.candidates) == 3
    assert sum(len(c.covering_tests) for c in pipe.candidates) == 9
    assert runs == sorted({t for c in pipe.candidates for t in c.covering_tests})
    assert len(runs) == 3
    runs.clear()
    provisional_memoization(pipe.program, raw, pipe.profile, pipe.bundle.closure, runtime=pipe.runtime)
    assert len(runs) == 3


# Arrays that a cache hit hands back or writes back as copies, so their
# aliases go stale: a returned argument, an argument returned by a callee,
# an argument stored into a global, and a global passed as the argument.
ALIAS_PROGRAMS = {
    "returned_alias": """
fn pick(a, n) { let i = 0; while (i < n) { i = i + 1; } return a; }
fn first(x) { let arr = [x, 2, 3]; let b = pick(arr, 300); b[0] = b[0] + 0; return arr[0]; }
fn test_first() { assert(first(1) == 1); assert(first(7) == 7); }
""",
    "callee_return": """
fn pick(a) { return a; }
fn f(a, n) { let i = 0; while (i < n) { i = i + 1; } let b = pick(a); b[0] = n; }
fn test_f() { let a = [0]; f(a, 300); assert(a[0] == 300); }
""",
    "array_in_global": """
global G = 0;
fn f(a) { G = a; }
fn g(n) { let i = 0; while (i < n) { i = i + 1; } G[0] = n; }
fn h(a, n) { f(a); g(n); }
fn test_h() { let a = [0]; h(a, 300); assert(a[0] == 300); }
""",
    "global_as_argument": """
global G = 0;
fn f(a, n) { let i = 0; while (i < n) { i = i + 1; } G[0] = n; }
fn test_f() { G = [0]; f(G, 300); assert(G[0] == 300); }
""",
}


# Tests that draw `rand` or read the clock for the argument of their
# second table by name: a table's own run must draw what the shared run
# and the recording run drew.
RAND_AROUND_A_TABLE = """
fn a_sq(n) { return n * n; }
fn y_pick(n) { let i = 0; while (i < n) { i = i + 1; } return i; }
fn z_pick(n) { let i = 0; while (i < n) { i = i + 1; } return i; }
fn test_a() { assert(a_sq(3) == 9); let r = rand(4); assert(y_pick(r) == r); }
fn test_b() { assert(a_sq(2) == 4); let t = time_now() % 4; assert(z_pick(t) == t); }
"""


def _provisional_programs():
    yield from _recording_programs()
    for workload in workloads.WORKLOADS:
        for seed in (0, 5):
            yield f"{workload}:{seed}", parse(workloads.generate(workload, seed).source)
    for name, src in ALIAS_PROGRAMS.items():
        yield name, parse(src)
    yield "rand_around_a_table", parse(RAND_AROUND_A_TABLE)


def test_provisional_matches_a_check_per_table():
    """Shared runs keep the tables, entries, exclusions, details and
    counts that checking every table alone keeps."""
    for name, program in _provisional_programs():
        runtime = Runtime(seed=0, fake_time=True)
        profile = profile_suite(program, runtime=runtime)
        bundle = analyze_program(program)
        for tau, limit in ((1000, 20.0), (1, 100.0)):
            criterion = ExpensivenessCriterion(tau=tau, tau_unit="steps", limit_value=limit)
            cands = select_candidates(profile, bundle.determinacy, criterion)
            raw = record_tables(program, bundle, cands, profile, criterion=criterion, runtime=runtime)
            got, got_counts = provisional_memoization(program, raw, profile, bundle.closure, runtime=runtime)
            want, want_counts = provisional_per_table(program, raw, profile, runtime)
            assert db_to_bytes(got) == db_to_bytes(want), (name, tau)
            assert got_counts == want_counts, (name, tau)


@pytest.mark.parametrize("seed", range(8))
def test_provisional_keeps_rand_argument_functions(seed):
    # The test draws the same `rand` stream when recorded and when checked,
    # so the key built from the draw was recorded, at every seed.
    src = (
        "fn f(n){ return n * n; } "
        "fn test_a(){ assert(f(rand(1000)) >= 0); }"
    )
    _, _, raw, final, counts = _pipeline_for(src, seed=seed)
    assert "f" in raw.tables
    assert "f" in final.tables
    assert counts["f"] == {"hits": 1, "misses": 0, "gated": 0}


def test_provisional_drops_changed_output_log():
    src = (
        "fn noisy(n){ print(n); return n + 1; } "
        "fn test_a(){ assert(noisy(1) == 2); }"
    )
    program, profile, raw, final, _ = _pipeline_for(src, time_rand_only=True)
    assert "noisy" in raw.tables  # candidate only without the print axiom
    assert "noisy" not in final.tables
    assert final.exclusions["noisy"].reason == "new_test_failure"
    assert final.exclusions["noisy"].detail == "test_a"


def test_provisional_checks_the_guilty_table_alone():
    # One test covers both tables; only noisy's hit drops a print.
    src = (
        "fn noisy(n){ print(n); return n + 1; } "
        "fn quiet(n){ return n * 2; } "
        "fn test_a(){ assert(noisy(1) == 2); assert(quiet(3) == 6); }"
    )
    _, _, raw, final, counts = _pipeline_for(src, time_rand_only=True)
    assert set(raw.tables) == {"noisy", "quiet"}
    assert set(final.tables) == {"quiet"}
    assert final.exclusions["noisy"] == Exclusion(reason="new_test_failure", detail="test_a")
    assert counts["quiet"] == {"hits": 1, "misses": 0, "gated": 0}


def test_provisional_checks_a_nested_table_alone(monkeypatch):
    # A hit on outer skips its body, so the shared run sees no look-up of
    # inner; inner gets a run of its own.
    src = (
        "fn inner(n){ let i = 0; while (i < n) { i = i + 1; } return i; } "
        "fn outer(n){ return inner(n) + inner(n + 1); } "
        "fn test_a(){ assert(outer(3) == 7); }"
    )
    program, profile, raw, _, _ = _pipeline_for(src)
    assert set(raw.tables) == {"inner", "outer"}
    runs = []
    run_test = builder.run_test

    def counted(program, test, *args, **kwargs):
        runs.append(test)
        return run_test(program, test, *args, **kwargs)

    monkeypatch.setattr(builder, "run_test", counted)
    closure = analyze_program(program).closure
    runtime = Runtime(seed=0, fake_time=True)
    final, counts = provisional_memoization(program, raw, profile, closure, runtime=runtime)
    assert runs == ["test_a", "test_a"]
    assert set(final.tables) == {"inner", "outer"}
    assert counts == {
        "inner": {"hits": 2, "misses": 0, "gated": 0},
        "outer": {"hits": 1, "misses": 0, "gated": 0},
    }


def test_provisional_draws_one_stream_per_test(monkeypatch):
    # The test draws, and its two tables do not call each other: both are
    # kept on the one shared run, whose draw their own runs would repeat.
    program = parse(
        "fn a(n){ let i = 0; while (i < n) { i = i + 1; } return i; } "
        "fn b(n){ let i = 0; while (i < n) { i = i + 2; } return i; } "
        "fn test_t(){ let r = rand(3); assert(a(50) == 50); assert(b(60) == 60); assert(r < 3); }"
    )
    runtime = Runtime(seed=0, fake_time=True)
    profile = profile_suite(program, runtime=runtime)
    bundle = analyze_program(program)
    criterion = ExpensivenessCriterion(tau=1, tau_unit="steps", limit_value=100.0)
    cands = select_candidates(profile, bundle.determinacy, criterion)
    raw = record_tables(program, bundle, cands, profile, criterion=criterion, runtime=runtime)
    assert set(raw.tables) == {"a", "b"}
    runs = []
    run_test = builder.run_test

    def counted(program, test, *args, **kwargs):
        runs.append(test)
        return run_test(program, test, *args, **kwargs)

    monkeypatch.setattr(builder, "run_test", counted)
    final, counts = provisional_memoization(program, raw, profile, bundle.closure, runtime=runtime)
    assert runs == ["test_t"]
    assert set(final.tables) == {"a", "b"}
    assert counts == {fn: {"hits": 1, "misses": 0, "gated": 0} for fn in ("a", "b")}
    want, want_counts = provisional_per_table(program, raw, profile, runtime)
    assert db_to_bytes(final) == db_to_bytes(want)
    assert counts == want_counts


def test_provisional_zero_misses_on_retained(corpus_pipelines):
    for name, pipe in corpus_pipelines.items():
        final, counts = provisional_memoization(
            pipe.program, pipe.raw, pipe.profile, pipe.bundle.closure, runtime=pipe.runtime
        )
        for fn in final.tables:
            assert counts[fn]["misses"] == 0, f"{name}:{fn}"


def test_provisional_rejects_foreign_program(sample_pipeline):
    other = parse("fn f(){ return 1; } fn test_a(){ f(); }")
    with pytest.raises(FingerprintMismatch):
        provisional_memoization(
            other, sample_pipeline.raw, sample_pipeline.profile, sample_pipeline.bundle.closure
        )


def test_lookup_hit_restores_state():
    src = (
        "global G = 0; "
        "fn f(n){ G = G + n; return G; } "
        "fn test_a(){ assert(f(2) == 2); assert(f(3) == 5); }"
    )
    program, profile, _, final, _ = _pipeline_for(src)
    hooks = LookupHooks(final.tables)
    rt = Runtime(seed=0, fake_time=True)
    outcome, state = run_test(
        program,
        test_name := "test_a",
        hooks,
        rng=rt.rng_for(f"check:{test_name}"),
        clock=rt.clock_for(f"check:{test_name}"),
    )
    assert outcome.verdict.passed
    totals = hooks.count_totals()
    assert totals["hits"] == 2 and totals["misses"] == 0
    assert state.globals["G"] == 5
    # Fewer steps than an unhooked run: both bodies were skipped.
    plain, _ = run_test(program, test_name)
    assert outcome.steps < plain.steps


def test_lookup_gated_runs_normally():
    program, profile, _, final, _ = _pipeline_for(FIB_SRC)
    hooks = LookupHooks(final.tables, blocked=frozenset({"fib"}))
    outcome, _ = run_test(program, "test_fib", hooks)
    assert outcome.verdict.passed
    totals = hooks.count_totals()
    assert totals["hits"] == 0 and totals["misses"] == 0
    assert totals["gated"] > 0


# -- persistence ------------------------------------------------------------


def _dbs_structurally_equal(a: MemoDB, b: MemoDB) -> bool:
    if (a.fingerprint, a.tau, a.tau_unit, a.limit_value, a.limit_is_pct) != (
        b.fingerprint,
        b.tau,
        b.tau_unit,
        b.limit_value,
        b.limit_is_pct,
    ):
        return False
    if set(a.tables) != set(b.tables) or set(a.exclusions) != set(b.exclusions):
        return False
    for fn, ta in a.tables.items():
        tb = b.tables[fn]
        if (ta.may_read, ta.may_write, ta.mut_args, ta.recorded_from) != (
            tb.may_read,
            tb.may_write,
            tb.mut_args,
            tb.recorded_from,
        ):
            return False
        if set(ta.entries) != set(tb.entries):
            return False
        for key, ra in ta.entries.items():
            rb = tb.entries[key]
            if not deep_equal(ra.ret, rb.ret) or ra.output_steps != rb.output_steps:
                return False
            if ra.written_globals != rb.written_globals or set(ra.post_args) != set(rb.post_args):
                return False
    return all(a.exclusions[f] == b.exclusions[f] for f in a.exclusions)


def test_db_round_trip_all_corpus(corpus_pipelines, tmp_path):
    for name, pipe in corpus_pipelines.items():
        path = tmp_path / f"{name}.db"
        save_db(pipe.db, path)
        back = load_db(path, pipe.program)
        assert _dbs_structurally_equal(pipe.db, back), name
        assert db_to_bytes(back) == db_to_bytes(pipe.db)


def test_round_trip_preserves_exclusions(tmp_path):
    db = MemoDB(fingerprint=7, tau=5, limit_value=2, limit_is_pct=False)
    db.exclusions["f"] = Exclusion(reason="conflicted")
    db.exclusions["g"] = Exclusion(reason="new_test_failure", detail="test_x")
    back = db_from_bytes(db_to_bytes(db))
    assert back.exclusions == db.exclusions


def test_round_trip_keeps_argument_mutations():
    src = (
        "fn fill(a, v){ a[0] = v; push(a, v); } "
        "fn test_a(){ let a = [0]; fill(a, 7); assert(a[1] == 7); "
        "let b = [1, 2]; fill(b, 3); assert(b[2] == 3); }"
    )
    _, _, _, final, _ = _pipeline_for(src)
    blob = db_to_bytes(final)
    back = db_from_bytes(blob)
    table = back.tables["fill"]
    assert table.mut_args == [0]
    assert sorted(rec.post_args[0] for rec in table.entries.values()) == [[3, 2, 3], [7, 7]]
    assert _dbs_structurally_equal(final, back)
    assert db_to_bytes(back) == blob


def test_single_byte_corruption_detected(corpus_pipelines):
    import random

    rng = random.Random(99)
    for name, pipe in corpus_pipelines.items():
        blob = bytearray(db_to_bytes(pipe.db))
        offsets = rng.sample(range(len(blob)), min(20, len(blob)))
        for off in offsets:
            corrupted = bytearray(blob)
            corrupted[off] ^= 0x5A
            with pytest.raises((CorruptDB, SchemaVersionMismatch)):
                db_from_bytes(bytes(corrupted))


def test_truncation_detected(sample_pipeline):
    blob = db_to_bytes(sample_pipeline.db)
    with pytest.raises(CorruptDB):
        db_from_bytes(blob[:-1])
    with pytest.raises(CorruptDB):
        db_from_bytes(blob + b"\x00")
    with pytest.raises(CorruptDB):
        db_from_bytes(b"NOPE" + blob[4:])


def test_fingerprint_mismatch_raised(sample_pipeline):
    other = parse("fn f(){ return 1; } fn test_a(){ f(); }")
    blob = db_to_bytes(sample_pipeline.db)
    with pytest.raises(FingerprintMismatch):
        db_from_bytes(blob, program_fingerprint(other))


def test_schema_version_mismatch(sample_pipeline):
    # The version is the u16 after the magic; a newer one is refused.
    blob = bytearray(db_to_bytes(sample_pipeline.db))
    blob[4:6] = (SCHEMA_VERSION + 1).to_bytes(2, "big")
    with pytest.raises(SchemaVersionMismatch):
        db_from_bytes(bytes(blob))


def test_older_schema_reported_as_version_mismatch(sample_pipeline):
    # A schema-1 header is one byte shorter, so its checksum cannot hold
    # under this layout; the version must still be what gets reported.
    blob = bytearray(db_to_bytes(sample_pipeline.db))
    blob[4:6] = (1).to_bytes(2, "big")
    with pytest.raises(SchemaVersionMismatch):
        db_from_bytes(bytes(blob))


def test_unknown_exclusion_reason_rejected():
    db = MemoDB(fingerprint=3, tau=1, limit_value=1, limit_is_pct=False)
    db.exclusions["f"] = Exclusion(reason="conflicted")
    blob = bytearray(db_to_bytes(db))
    # The exclusions block ends the file: u32 count, "f", u8 tag, an
    # empty detail string, then its u64 checksum.  Set the tag to 4 and
    # re-seal the checksum so only the reason is wrong.
    body_start, tag_at = len(blob) - 8 - 14, len(blob) - 8 - 4 - 1
    assert blob[tag_at] == 3
    blob[tag_at] = 4
    blob[-8:] = checksum64(bytes(blob[body_start:-8])).to_bytes(8, "big")
    with pytest.raises(CorruptDB, match="bad exclusion reason"):
        db_from_bytes(bytes(blob))


def test_corrupt_record_reported_at_its_file_offset():
    # One table holding one entry; the record's return value starts with its
    # type tag.  Set that tag to 9 and re-seal the table checksum: the error
    # names the tag's offset in the file, once.
    rec = OutputRecord(ret=5, written_globals={}, post_args={}, output_steps=3)
    table = MemoTable(fn="f", may_read=[], may_write=[], mut_args=[])
    table.entries[encode_key([1], [])] = rec
    db = MemoDB(fingerprint=3, tau=1, limit_value=1, limit_is_pct=False, tables={"f": table})
    blob = bytearray(db_to_bytes(db))
    header_end = 4 + 2 + 8 + 8 + 1 + 1 + 8 + 4 + 8
    body_start = header_end + 4
    body_end = body_start + int.from_bytes(blob[header_end:body_start], "big")
    tag_at = blob.index(encode_value(5), body_start)
    blob[tag_at] = 9
    blob[body_end : body_end + 8] = checksum64(bytes(blob[body_start:body_end])).to_bytes(8, "big")
    with pytest.raises(CorruptDB, match=f"^offset {tag_at}: unknown tag 0x9$") as info:
        db_from_bytes(bytes(blob))
    assert info.value.offset == tag_at


def test_tau_unit_round_trip_and_bad_unit_rejected():
    db = MemoDB(fingerprint=3, tau=1000, tau_unit="steps", limit_value=20, limit_is_pct=True)
    blob = bytearray(db_to_bytes(db))
    assert db_from_bytes(bytes(blob)).tau_unit == "steps"
    # The unit byte follows magic, version, fingerprint and tau; re-seal
    # the header checksum so only the unknown unit is wrong.
    unit_at, header_end = 4 + 2 + 8 + 8, 4 + 2 + 8 + 8 + 1 + 1 + 8 + 4
    blob[unit_at] = 9
    blob[header_end : header_end + 8] = checksum64(bytes(blob[:header_end])).to_bytes(8, "big")
    with pytest.raises(CorruptDB, match="bad tau unit"):
        db_from_bytes(bytes(blob))


def test_limit_mode_round_trip_and_bad_mode_rejected():
    for is_pct in (False, True):
        db = MemoDB(fingerprint=3, tau=1000, tau_unit="steps", limit_value=20, limit_is_pct=is_pct)
        assert db_from_bytes(db_to_bytes(db)).limit_is_pct is is_pct
    blob = bytearray(db_to_bytes(db))
    # The limit-mode byte follows the unit byte; re-seal the header checksum
    # so only the unknown mode is wrong.
    mode_at, header_end = 4 + 2 + 8 + 8 + 1, 4 + 2 + 8 + 8 + 1 + 1 + 8 + 4
    for mode in (2, 255):
        blob[mode_at] = mode
        blob[header_end : header_end + 8] = checksum64(bytes(blob[:header_end])).to_bytes(8, "big")
        with pytest.raises(CorruptDB, match="bad limit mode") as err:
            db_from_bytes(bytes(blob))
        assert err.value.offset == mode_at


def test_db_to_json_shape(sample_pipeline):
    doc = db_to_json(sample_pipeline.db)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc) == {
        "fingerprint",
        "schema_version",
        "tau",
        "limit",
        "tables",
        "exclusions",
    }
    for t in doc["tables"].values():
        assert set(t) == {"may_read", "may_write", "mut_args", "recorded_from", "entries"}
