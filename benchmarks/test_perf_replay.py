"""Analyzer replay throughput: the seed path vs the production path.

Measures analyze-side wall clock for two replay paths -- the seed path
(the reference oracle of ``tests/util.py``: tuple replayer, reference
DCFG scan, serial, no memo) and the production analyzer (the span
replayer over packed columns, DCFG scan dedup, signature-keyed warp
memoization) -- over the five core workloads, plus a synthetic
replicated-lane workload that exercises the warp-memo fast path
directly.  The five core workloads give every thread private stack and
heap addresses, so their memo hit rate is ~0 and their speedup is
replay work, not memo hits.  Results go to
``benchmarks/results/perf_replay.txt`` and the machine-readable
``BENCH_replay.json`` at the repo root.

The two paths run in alternating order within each round:
interleaving cancels slow drift (thermal, cache warmup) that a
measure-all-of-A-then-all-of-B loop folds into the ratio.

One-time trace *packing* is timed separately (``pack_s``): it is paid
once per trace set and shared by every subsequent analysis, so folding
it into per-analysis replay time would misstate both.

Two modes:

* full (default): five workloads at 64 threads, best-of-3; asserts the
  acceptance target -- production replay >= 1.5x geomean over the seed
  path -- and bit-identical reports between the two.
* smoke (``THREADFUSER_PERF_SMOKE=1``): one small workload, best-of-2,
  with a deliberately generous floor -- a CI canary against massive
  regressions, not a precision measurement.
"""

import json
import os
import pickle
import sys
import time

from conftest import emit, run_once

from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.obs import Recorder
from repro.tracer.events import TraceSet
from repro.workloads import get_workload, trace_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
from util import oracle_analyze  # noqa: E402

SMOKE = os.environ.get("THREADFUSER_PERF_SMOKE") == "1"

WORKLOADS = ["nbody"] if SMOKE else [
    "nbody", "pigz", "memcached", "streamcluster", "md5",
]
N_THREADS = 32 if SMOKE else 64
WARP_SIZE = 32
ROUNDS = 2 if SMOKE else 3

#: Full-mode acceptance: the production replay path's reason to exist.
FULL_MIN_GEOMEAN_SPEEDUP = 1.5

#: Smoke floor: production replay must not be drastically slower than
#: the seed path.  Measured speedups are several x; only a broken fast
#: path trips it.
SMOKE_MIN_SPEEDUP = 0.6


class _Oracle:
    """The seed path behind the analyzer's ``analyze`` call shape."""

    def __init__(self, config):
        self.config = config

    def analyze(self, traces):
        return oracle_analyze(traces, self.config)


def _canonical(report):
    """One comparable value covering every report observable.

    Pickling is deterministic here (dict insertion orders are part of
    the replay contract), so equal bytes mean bit-identical reports.
    """
    return pickle.dumps(report)


def _best_pair(first, second, traces):
    """Best-of-ROUNDS for two analyzers, alternating order each round."""
    bests = {id(first): float("inf"), id(second): float("inf")}
    reports = {}
    for round_no in range(ROUNDS):
        order = (first, second) if round_no % 2 == 0 else (second, first)
        for analyzer in order:
            t0 = time.perf_counter()
            reports[id(analyzer)] = analyzer.analyze(traces)
            bests[id(analyzer)] = min(bests[id(analyzer)],
                                      time.perf_counter() - t0)
    return ((bests[id(first)], reports[id(first)]),
            (bests[id(second)], reports[id(second)]))


def _replicated_traces(n_threads):
    """A trace set whose threads all share one token stream.

    Real workloads give every thread private stack/heap addresses, so
    their warp-memo hit rate is legitimately ~0; this synthetic SPMD
    workload is the memo fast path's showcase: every warp after the
    first replays for free.
    """
    source, _ = trace_instance(get_workload("vectoradd").instantiate(1))
    tokens = list(source.threads[0].tokens)
    root = source.threads[0].root
    replicated = TraceSet(workload="replicated")
    for tid in range(n_threads):
        thread = replicated.new_thread(tid, root)
        thread.tokens = list(tokens)
    return replicated


def _measure(name, traces):
    cfg = AnalyzerConfig(warp_size=WARP_SIZE)
    t0 = time.perf_counter()
    for thread in traces:
        thread.packed()
    pack_s = time.perf_counter() - t0

    recorder = Recorder()
    production = ThreadFuserAnalyzer(cfg, recorder=recorder)
    ((seed_s, seed_report),
     (replay_s, report)) = _best_pair(_Oracle(cfg), production, traces)
    # Bit-identical acceptance: the production path is an invisible
    # optimization of the seed path.
    assert _canonical(report) == _canonical(seed_report), name

    gauges = recorder.telemetry().gauges
    lookups = gauges.get("memo.warp_lookups", 0)
    hits = gauges.get("memo.warp_hits", 0)
    instructions = report.metrics.thread_instructions
    return {
        "thread_instructions": instructions,
        "seed_replay_s": seed_s,
        "replay_s": replay_s,
        "pack_s": pack_s,
        "seed_ips": instructions / seed_s,
        "ips": instructions / replay_s,
        "speedup": seed_s / replay_s,
        "vector_token_fraction": gauges.get(
            "replay.vector_token_fraction", 0.0),
        "memo_lookups": lookups,
        "memo_hits": hits,
        "memo_hit_rate": hits / lookups if lookups else 0.0,
    }


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def test_replay_throughput(benchmark):
    def experiment():
        rows = {}
        for name in WORKLOADS:
            traces, _ = trace_instance(
                get_workload(name).instantiate(N_THREADS))
            rows[name] = _measure(name, traces)
        # At least two full warps, so the memo path has a hit to show
        # even when smoke mode shrinks N_THREADS to one warp.
        rows["replicated"] = _measure(
            "replicated", _replicated_traces(max(N_THREADS, 2 * WARP_SIZE)))
        return rows

    rows = run_once(benchmark, experiment)

    lines = [
        "Analyzer replay throughput (seed path vs production; "
        f"{'smoke' if SMOKE else 'full'} mode, {N_THREADS} threads, "
        f"warp {WARP_SIZE}, best of {ROUNDS})",
        "{:<14} {:>11} {:>8} {:>8} {:>7} {:>7} {:>6} {:>5}"
        .format("workload", "thread-ins", "seed", "replay", "pack",
                "spdup", "vfrac", "memo"),
        "{:<14} {:>11} {:>8} {:>8} {:>7} {:>7} {:>6} {:>5}"
        .format("", "", "ms", "ms", "ms", "", "", "rate"),
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<14} {r['thread_instructions']:>11} "
            f"{r['seed_replay_s'] * 1e3:>8.1f} "
            f"{r['replay_s'] * 1e3:>8.1f} "
            f"{r['pack_s'] * 1e3:>7.1f} "
            f"{r['speedup']:>6.2f}x "
            f"{r['vector_token_fraction']:>6.2f} "
            f"{r['memo_hit_rate']:>5.2f}"
        )
    geomean = _geomean([rows[name]["speedup"] for name in WORKLOADS])
    lines.append(f"geomean speedup (core workloads): {geomean:.2f}x "
                 f"production/seed")
    emit("perf_replay_smoke" if SMOKE else "perf_replay",
         "\n".join(lines))

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "n_threads": N_THREADS,
        "warp_size": WARP_SIZE,
        "rounds": ROUNDS,
        "nproc": len(os.sched_getaffinity(0)),
        "unit": "thread-instructions/second of analyze(), single process",
        "baseline": "seed path (the reference oracle: tuple "
                    "WarpReplayer, reference DCFG scan, serial, no memo)",
        "workloads": rows,
        "geomean_speedup": geomean,
    }
    if not SMOKE:
        with open(os.path.join(ROOT, "BENCH_replay.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # The replicated workload must demonstrate the memo fast path:
    # every warp after the first is a hit.
    replicated = rows["replicated"]
    assert replicated["memo_lookups"] >= 2
    assert replicated["memo_hits"] == replicated["memo_lookups"] - 1

    if SMOKE:
        for name in WORKLOADS:
            assert rows[name]["speedup"] >= SMOKE_MIN_SPEEDUP, (
                f"{name}: production replay far below the seed path "
                f"({rows[name]['speedup']:.2f}x)"
            )
    else:
        assert geomean >= FULL_MIN_GEOMEAN_SPEEDUP, (
            f"production replay geomean speedup {geomean:.2f}x is below "
            f"the {FULL_MIN_GEOMEAN_SPEEDUP}x acceptance target"
        )
