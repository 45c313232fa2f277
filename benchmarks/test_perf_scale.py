"""Parallel-replay scaling: the persistent shared-memory pool vs serial.

Measures replay wall clock at paper-scale thread counts (512-4096
logical threads, vs the 64-96 of the other benchmarks) on the
persistent :mod:`repro.pool` workers -- spawned once, traces attached
zero-copy from a shared-memory column arena, DCFG tables pushed once
per worker -- against the serial ``jobs=1`` path.

The workload is synthetic SPMD at scale: every thread replays the
vectoradd kernel's token stream with thread-private memory addresses,
so lane signatures are unique (no intra-call memo shortcut -- each
warp really replays).  Each threads x jobs cell starts from a cold
pool and reports two kinds of call, because only one of them is a
fair speed comparison with serial replay:

* ``first_s``: the first call, which spawns the workers and builds and
  attaches the arena;
* ``fresh_s``: a repeat at a config not yet replayed -- the arena is
  attached and every warp really replays.  ``speedup`` is
  ``serial_s / fresh_s``.

The configs differ only in their lock fields, which the lock-free
vectoradd stream never reads, so every call does the same replay work.

Results go to ``benchmarks/results/perf_scale.txt`` and the
machine-readable ``BENCH_scale.json`` at the repo root (gated by
``tools/bench_compare.py``).

Two modes:

* full (default): the complete thread-count x jobs grid, best-of-3;
  asserts the acceptance target -- at 2048 threads and above, the
  no-memo repeat at jobs=2 is no slower than serial -- plus
  bit-identical reports across serial and the pool and zero leaked
  shared-memory segments.
* smoke (``THREADFUSER_PERF_SMOKE=1``): 128 threads, jobs=2, one
  round, a generous floor -- a CI canary, not a measurement.
"""

import dataclasses
import json
import os
import pickle
import time

from conftest import emit, run_once

import repro.pool as pool_mod
from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.tracer.events import TraceSet
from repro.workloads import get_workload, trace_instance

SMOKE = os.environ.get("THREADFUSER_PERF_SMOKE") == "1"

THREAD_COUNTS = [128] if SMOKE else [512, 1024, 2048, 4096]
JOBS = [2] if SMOKE else [2, 4, 8]
WARP_SIZE = 32
ROUNDS = 1 if SMOKE else 3

#: Full-mode acceptance: from this many threads up, a jobs=2 repeat
#: with no memo hits must be no slower than serial replay.
FULL_GATE_THREADS = 2048
FULL_MIN_FRESH_SPEEDUP = 1.0

#: Smoke floor: at 128 threads pool round trips dominate, so this only
#: catches a pathologically slow or hung substrate.
SMOKE_MIN_FRESH_SPEEDUP = 0.1

#: Result-equivalent configs for the lock-free stream: the first call
#: uses the first, and each later round replays a config no worker has
#: seen yet (its ``fresh`` call) next to one serial call.
_BASE = AnalyzerConfig(warp_size=WARP_SIZE)
CONFIGS = [dataclasses.replace(_BASE, emulate_locks=locks,
                               lock_reconvergence=policy)
           for locks in (False, True) for policy in ("unlock", "exit")]
assert ROUNDS + 1 <= len(CONFIGS)


def _canonical(report):
    return pickle.dumps(report)


def _scaled_traces(n_threads):
    """The vectoradd kernel stream tiled to ``n_threads`` SPMD lanes.

    Control flow is identical across lanes (one DCFG, convergent
    replay) but every memory address is offset by a thread-private
    stride, so each lane's packed columns -- and therefore its content
    signature -- are unique: no two warps share a memo key within one
    call, and the measured speedup is substrate overhead, not the
    intra-call memo shortcut.
    """
    source, _ = trace_instance(get_workload("vectoradd").instantiate(1))
    tokens = list(source.threads[0].tokens)
    root = source.threads[0].root
    scaled = TraceSet(workload=f"scaled-{n_threads}")
    for tid in range(n_threads):
        offset = tid * 64
        scaled.new_thread(tid, root).tokens = [
            (kind, addr, n_ins,
             tuple((slot, store, mem_addr + offset, size)
                   for slot, store, mem_addr, size in mems))
            for kind, addr, n_ins, mems in tokens
        ]
    return scaled


def _timed(analyzer, traces, dcfgs):
    t0 = time.perf_counter()
    report = analyzer.analyze(traces, dcfgs=dcfgs)
    return time.perf_counter() - t0, _canonical(report)


def _measure(n_threads):
    traces = _scaled_traces(n_threads)
    serial = ThreadFuserAnalyzer(_BASE, jobs=1)
    dcfgs = serial.prepare(traces)
    _, reference = _timed(serial, traces, dcfgs)

    cells = {}
    for jobs in JOBS:
        # A cold pool per cell: no worker holds this cell's arena yet.
        pool_mod.shutdown()
        pool = [ThreadFuserAnalyzer(cfg, jobs=jobs) for cfg in CONFIGS]
        first_s, report = _timed(pool[0], traces, dcfgs)
        assert report == reference, (n_threads, jobs)
        # Each round times serial and a fresh config back to back, so
        # host drift hits both alike.
        times = {"serial_s": [], "fresh_s": []}
        for analyzer in pool[1:ROUNDS + 1]:
            for key, run in (("serial_s", serial), ("fresh_s", analyzer)):
                elapsed, report = _timed(run, traces, dcfgs)
                assert report == reference, (n_threads, jobs, key)
                times[key].append(elapsed)
        cell = {key: min(values) for key, values in times.items()}
        cell["first_s"] = first_s
        cell["speedup"] = cell["serial_s"] / cell["fresh_s"]
        cells[jobs] = cell
    snapshot = pool_mod.stats_snapshot()
    row = {
        "jobs": cells,
        "arena_bytes": snapshot.get("arena_bytes", 0),
    }
    pool_mod.release_arena(traces)
    return row


def test_substrate_scaling(benchmark):
    def experiment():
        return {n: _measure(n) for n in THREAD_COUNTS}

    rows = run_once(benchmark, experiment)

    mode = "smoke" if SMOKE else "full"
    lines = [
        "Parallel-replay scaling (persistent shared-memory pool vs "
        f"serial; {mode} mode, warp {WARP_SIZE}, best of {ROUNDS})",
        "{:>8} {:>5} {:>10} {:>10} {:>10} {:>8}".format(
            "threads", "jobs", "serial", "first", "fresh", "speedup"),
        "{:>8} {:>5} {:>10} {:>10} {:>10} {:>8}".format(
            "", "", "ms", "ms", "ms", "fresh"),
    ]
    for n_threads, row in rows.items():
        for jobs, cell in row["jobs"].items():
            lines.append(
                f"{n_threads:>8} {jobs:>5} "
                f"{cell['serial_s'] * 1e3:>10.1f} "
                f"{cell['first_s'] * 1e3:>10.1f} "
                f"{cell['fresh_s'] * 1e3:>10.1f} "
                f"{cell['speedup']:>7.2f}x"
            )
    emit("perf_scale_smoke" if SMOKE else "perf_scale", "\n".join(lines))

    if not SMOKE:
        payload = {
            "mode": mode,
            "warp_size": WARP_SIZE,
            "rounds": ROUNDS,
            "nproc": len(os.sched_getaffinity(0)),
            "unit": "seconds of analyze() wall clock",
            "baseline": "serial replay (jobs=1); speedup = serial_s / "
                        "fresh_s, a repeat at a config not yet replayed",
            "scales": {
                str(n): {
                    "arena_bytes": row["arena_bytes"],
                    "jobs": {
                        str(jobs): cell
                        for jobs, cell in row["jobs"].items()
                    },
                }
                for n, row in rows.items()
            },
        }
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCH_scale.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # Zero-leak acceptance: every arena this benchmark opened was
    # released; nothing remains for atexit to reap.
    assert pool_mod.live_arenas() == []
    assert pool_mod.leaked_segments() == []

    if SMOKE:
        for row in rows.values():
            for cell in row["jobs"].values():
                assert cell["speedup"] >= SMOKE_MIN_FRESH_SPEEDUP, cell
    else:
        for n_threads, row in rows.items():
            if n_threads < FULL_GATE_THREADS:
                continue
            cell = row["jobs"][2]
            assert cell["speedup"] >= FULL_MIN_FRESH_SPEEDUP, (
                f"{n_threads} threads: a jobs=2 repeat with no memo hits "
                f"ran at {cell['speedup']:.2f}x of serial, below the "
                f"{FULL_MIN_FRESH_SPEEDUP}x acceptance target"
            )
