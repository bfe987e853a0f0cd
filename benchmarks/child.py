"""One `memomut pipeline` invocation in a fresh process, timed or traced.

Usage: python3 child.py SPEC.json

SPEC holds `src` (the directory holding the `memomut` package), `mode`
("timed" or "traced"), `warm` and `main` (CLI argument lists) and `out` (the
result file).  The child first runs the `warm` pipeline untimed, so
first-call costs in this process land on neither the memo-off nor the
memo-on run of `main`.  In both modes it cuts the pipeline into segments at
each `run_mutation_analysis` call (setup, base, between, memo, tail).  In
timed mode a host-speed probe also samples the host during the pipeline
(HostProbe); in traced mode it records spans at every layer boundary (see
tracing.py) instead.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import signal
import sys
import time


def resident_kb() -> int:
    """This process's current resident size (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class _Cell:
    __slots__ = ("v",)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def probe_ns() -> int:
    """Time of one fixed burst of plain Python work: the host's speed right now.

    The burst is the benchmark's own code (calls, attribute and dict access,
    small ints, like an interpreter's inner loop), so a change to memomut
    cannot move it; only the host can.
    """
    table: dict[int, int] = {}
    recent: list[int] = []
    cell = _Cell()
    cell.v = 0
    t0 = time.perf_counter_ns()
    for i in range(PROBE_LOOPS):
        key = _mix(i, cell.v)
        table[key & 255] = key
        recent.append(key)
        if len(recent) > 64:
            recent.clear()
        cell.v = (cell.v + key) % 1009
    return time.perf_counter_ns() - t0


PROBE_LOOPS = 2_500  # about 1 ms on a 2-vCPU Xeon VM
PROBE_PERIOD_S = 0.05


class HostProbe:
    """Runs probe_ns every PROBE_PERIOD_S from a SIGALRM handler.

    The handler runs in this process's main thread between bytecodes, so
    the samples cover exactly the time the pipeline runs.  Each sample is
    [end ns, burst ns, handler ns]; the caller subtracts the handler time
    from the segment it fell in.  Pool workers do not inherit the timer.
    """

    def __init__(self):
        self.samples: list[list[int]] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        burst = probe_ns()
        t1 = time.perf_counter_ns()
        self.samples.append([t1, burst, t1 - t0])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from memomut import cli

    with contextlib.redirect_stdout(io.StringIO()):
        warm_rc = cli.main(spec["warm"])
    if warm_rc != 0:
        print(f"warm-up pipeline exited {warm_rc}", file=sys.stderr)
        return 1

    segments: list[list] = []  # [name, start ns, end ns]
    seg_start = 0

    def cut(name: str) -> None:
        nonlocal seg_start
        end = time.perf_counter_ns()
        segments.append([name, seg_start, end])
        seg_start = end

    fork_rss_kb = 0  # our resident size when a run's pool workers are forked
    tracer = None
    if spec["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    inner = cli.run_mutation_analysis

    @functools.wraps(inner)
    def timed(*args, **kwargs):
        nonlocal fork_rss_kb
        fork_rss_kb = max(fork_rss_kb, resident_kb())
        cut("between" if segments else "setup")
        try:
            return inner(*args, **kwargs)
        finally:
            cut("memo" if kwargs["cfg"].memo else "base")

    cli.run_mutation_analysis = timed

    probe = HostProbe()
    if tracer is None:
        probe_ns()  # the first burst in a process is the slowest
        probe.start()
    out = io.StringIO()
    seg_start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(spec["main"])
        cut("tail")
    finally:
        probe.stop()

    # Linux reports kilobytes.  A forked worker's peak includes the pages it
    # shares with us, so only its growth past our size at the fork is added.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "rc": rc,
        "stdout": out.getvalue(),
        "segments": segments,
        "probes": probe.samples,
        "peak_rss_kb": own + max(0, workers - fork_rss_kb),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
