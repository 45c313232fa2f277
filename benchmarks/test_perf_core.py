"""Core execution-engine throughput: compiled kernels vs the interpreter.

Measures single-process machine throughput (dynamic instructions per
second) for both execution engines over the tracer-overhead workload
set, natively and under the tracer, plus the analyzer's replay
throughput.  Results go to ``benchmarks/results/perf_core.txt`` and the
machine-readable ``BENCH_core.json`` at the repo root.

Two modes:

* full (default): the five tracer-overhead workloads at 64 threads,
  three rounds; asserts the headline acceptance target -- the compiled
  engine is >= 2x the interpreter on native geomean throughput.
* smoke (``THREADFUSER_PERF_SMOKE=1``): one small workload, two
  rounds, with deliberately generous floors -- a CI canary against
  massive regressions, not a precision measurement.

After one untimed warm-up run of each engine per workload, each round
times the two engines back to back, natively and then traced,
alternating which engine goes first.  Rates are the best round's; each
speedup is the median of the per-round time ratios, so host drift
between rounds does not enter it.
"""

import json
import os
import statistics
import time

from conftest import emit, run_once

from repro.core import analyze_traces
from repro.workloads import get_workload, run_instance, trace_instance

SMOKE = os.environ.get("THREADFUSER_PERF_SMOKE") == "1"

WORKLOADS = ["nbody"] if SMOKE else [
    "nbody", "pigz", "memcached", "streamcluster", "md5",
]
N_THREADS = 32 if SMOKE else 64
ROUNDS = 2 if SMOKE else 3
ENGINES = ("interp", "compiled")

#: Smoke floors: an order of magnitude of headroom against measured
#: numbers (compiled ~2.5+ M instr/s, ~2x speedup on dev hardware), so
#: only a catastrophic regression or a broken engine trips CI.
SMOKE_MIN_COMPILED_IPS = 300_000.0
SMOKE_MIN_SPEEDUP = 1.15

#: Full-mode acceptance: the compiled engine's reason to exist.
FULL_MIN_GEOMEAN_SPEEDUP = 2.0


def _native_run(workload, engine):
    """One native wall time; returns (seconds, instructions)."""
    instance = workload.instantiate(N_THREADS)
    t0 = time.perf_counter()
    machine = run_instance(instance, engine=engine)
    return time.perf_counter() - t0, machine.total_instructions


def _traced_run(workload, engine):
    """One traced wall time; returns (seconds, traces)."""
    instance = workload.instantiate(N_THREADS)
    t0 = time.perf_counter()
    traces, _machine = trace_instance(instance, engine=engine)
    return time.perf_counter() - t0, traces


def _interleaved(workload):
    """Time both engines back to back, native then traced, per round.

    The engine that runs first alternates from round to round, so host
    drift between rounds cancels in each round's interp/compiled ratio.
    Returns the best time per ``(mode, engine)``, the median per-round
    ratio per mode, the instruction count and the compiled traces.
    """
    for engine in ENGINES:
        # Untimed: the compiled engine's first run of a program compiles
        # its kernels, a first-use cost that would sink round 1's ratio.
        _native_run(workload, engine)
        _traced_run(workload, engine)
    best = {}
    ratios = {"native": [], "traced": []}
    for index in range(ROUNDS):
        engines = ENGINES if index % 2 == 0 else ENGINES[::-1]
        for mode, run in (("native", _native_run), ("traced", _traced_run)):
            seconds = {}
            for engine in engines:
                seconds[engine], result = run(workload, engine)
                key = (mode, engine)
                best[key] = min(best.get(key, float("inf")), seconds[engine])
                if mode == "native":
                    instructions = result
                elif engine == "compiled":
                    traces = result
            ratios[mode].append(seconds["interp"] / seconds["compiled"])
    medians = {mode: statistics.median(r) for mode, r in ratios.items()}
    return best, medians, instructions, traces


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def test_core_engine_throughput(benchmark):
    def experiment():
        rows = {}
        for name in WORKLOADS:
            best, medians, instructions, traces = _interleaved(
                get_workload(name))
            t0 = time.perf_counter()
            analyze_traces(traces, warp_size=32)
            analyze_s = time.perf_counter() - t0
            rows[name] = {
                "instructions": instructions,
                "interp_ips": instructions / best["native", "interp"],
                "compiled_ips": instructions / best["native", "compiled"],
                "speedup": medians["native"],
                "interp_traced_ips": instructions / best["traced", "interp"],
                "compiled_traced_ips": (instructions
                                        / best["traced", "compiled"]),
                "traced_speedup": medians["traced"],
                "analyze_s": analyze_s,
            }
        return rows

    rows = run_once(benchmark, experiment)

    lines = [
        "Core engine throughput (native = NullHooks, M instr/s; "
        f"{'smoke' if SMOKE else 'full'} mode, {N_THREADS} threads, "
        f"best of {ROUNDS}; speedups are medians of per-round ratios)",
        "{:<14} {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}".format(
            "workload", "instrs", "interp", "compiled", "native",
            "interp", "compiled", "traced"),
        "{:<14} {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}".format(
            "", "", "native", "native", "spdup", "traced", "traced",
            "spdup"),
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<14} {r['instructions']:>10} "
            f"{r['interp_ips'] / 1e6:>9.2f} "
            f"{r['compiled_ips'] / 1e6:>9.2f} "
            f"{r['speedup']:>7.2f}x "
            f"{r['interp_traced_ips'] / 1e6:>9.2f} "
            f"{r['compiled_traced_ips'] / 1e6:>9.2f} "
            f"{r['traced_speedup']:>7.2f}x"
        )
    geomean = _geomean([r["speedup"] for r in rows.values()])
    traced_geomean = _geomean([r["traced_speedup"] for r in rows.values()])
    lines.append(
        f"geomean speedup: native {geomean:.2f}x, traced "
        f"{traced_geomean:.2f}x"
    )
    emit("perf_core_smoke" if SMOKE else "perf_core", "\n".join(lines))

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "nproc": len(os.sched_getaffinity(0)),
        "n_threads": N_THREADS,
        "rounds": ROUNDS,
        "speedups": "median over rounds of the interleaved interp/compiled "
                    "time ratio",
        "unit": "instructions/second, single process",
        "baseline": "interp (the seed instruction-at-a-time interpreter)",
        "workloads": rows,
        "geomean_native_speedup": geomean,
        "geomean_traced_speedup": traced_geomean,
    }
    if not SMOKE:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCH_core.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if SMOKE:
        for name, r in rows.items():
            assert r["compiled_ips"] >= SMOKE_MIN_COMPILED_IPS, (
                f"{name}: compiled engine below the smoke floor "
                f"({r['compiled_ips']:.0f} instr/s)"
            )
            assert r["speedup"] >= SMOKE_MIN_SPEEDUP, (
                f"{name}: compiled engine no faster than the interpreter "
                f"({r['speedup']:.2f}x)"
            )
    else:
        assert geomean >= FULL_MIN_GEOMEAN_SPEEDUP, (
            f"compiled engine geomean speedup {geomean:.2f}x is below "
            f"the {FULL_MIN_GEOMEAN_SPEEDUP}x acceptance target"
        )
