"""In-memory spans around calls into memomut's modules.

The benchmark never edits `src/`: it replaces the module attributes through
which the program calls each layer with wrappers that record a span (id,
parent id, name, start ns, end ns).  Spans stay in memory and are written
out once the pipeline has finished.

Span ids carry the process id, so spans recorded in a forked worker of the
runner's process pool still name the parent span that was open when the
pool was created, and they travel back to the parent on the mutant's result.
"""

from __future__ import annotations

import functools
import os
import time

# (module, attribute, span name).  Stage functions are wrapped where
# `memomut.cli` imported them; the rest where their callers look them up.
WRAP_POINTS = [
    ("memomut.cli", "load_project", "parse"),
    ("memomut.cli", "analyze_program", "analyze"),
    ("memomut.cli", "profile_suite", "profile"),
    ("memomut.cli", "select_candidates", "select"),
    ("memomut.cli", "generate_mutants", "mutate"),
    ("memomut.cli", "record_tables", "record"),
    ("memomut.cli", "provisional_memoization", "provisional"),
    ("memomut.cli", "save_db", "db.save"),
    ("memomut.cli", "compare_runs", "compare"),
    ("memomut.runner", "run_test", "runner.run_test"),
    ("memomut.runner", "apply_mutant", "apply"),
    ("memomut.profiler", "run_test", "profiler.run_test"),
    ("memomut.memo.builder", "run_test", "builder.run_test"),
    ("memomut.memo.builder", "encode_key", "encode_key"),
    ("memomut.runner", "program_fingerprint", "fingerprint"),
    ("memomut.memo.builder", "program_fingerprint", "fingerprint"),
    ("memomut.mutation", "program_fingerprint", "fingerprint"),
    ("memomut.memo.db", "program_fingerprint", "fingerprint"),
]

class Tracer:
    """Collects spans for one process; `spans` rows are [id, parent, name, t0, t1]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = [0]
        self._next = 0

    def begin(self, name: str) -> list:
        if self._next >> 32 != os.getpid():  # first span in this process
            self._next = os.getpid() << 32
        self._next += 1
        row = [self._next, self._stack[-1], name, time.perf_counter_ns(), 0]
        self.spans.append(row)
        self._stack.append(self._next)
        return row

    def end(self, row: list) -> None:
        row[4] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(row)

        return traced

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported memomut modules in place."""
    import importlib

    from memomut import cli, runner
    from memomut.memo.builder import LookupHooks

    for module, attr, name in WRAP_POINTS:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
    LookupHooks.on_call_enter = tracer.wrap(LookupHooks.on_call_enter, "lookup")

    def counted(attr, name, measure):
        inner = getattr(cli, attr)

        @functools.wraps(inner)
        def call(*args, **kwargs):
            out = inner(*args, **kwargs)
            tracer.count(name, measure(out))
            return out

        setattr(cli, attr, call)

    counted("select_candidates", "select.candidates", len)
    counted("record_tables", "record.entries", lambda db: sum(len(t.entries) for t in db.tables.values()))

    run_analysis = cli.run_mutation_analysis

    @functools.wraps(run_analysis)
    def run_traced(*args, **kwargs):
        row = tracer.begin("run.memo" if kwargs["cfg"].memo else "run.base")
        try:
            report = run_analysis(*args, **kwargs)
        finally:
            tracer.end(row)
        for result in report.results:  # spans recorded in pool workers
            tracer.spans.extend(result.__dict__.pop("bench_spans", ()))
        return report

    cli.run_mutation_analysis = run_traced

    worker_run = runner._worker_run

    @functools.wraps(worker_run)
    def worker_traced(mutant_id):
        start = len(tracer.spans)
        result = worker_run(mutant_id)
        result.bench_spans = tracer.spans[start:]
        del tracer.spans[start:]
        return result

    runner._worker_run = worker_traced


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover.

    Children of one span overlap only when they ran in parallel workers, so
    the covered part is the union of the children's intervals.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, _, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    own = {}
    for sid, _, _, t0, t1 in spans:
        covered, reach = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        own[sid] = t1 - t0 - covered
    return own
