"""Core execution-engine throughput: compiled kernels vs the interpreter.

Measures single-process machine throughput (dynamic instructions per
second) for both execution engines over the tracer-overhead workload
set, natively and under the tracer, plus the analyzer's replay
throughput.  Results go to ``benchmarks/results/perf_core.txt`` and the
machine-readable ``BENCH_core.json`` at the repo root.

Two modes:

* full (default): the five tracer-overhead workloads at 64 threads,
  best-of-3; asserts the headline acceptance target -- the compiled
  engine is >= 2x the interpreter on native geomean throughput.
* smoke (``THREADFUSER_PERF_SMOKE=1``): one small workload, best-of-2,
  with deliberately generous floors -- a CI canary against massive
  regressions, not a precision measurement.
"""

import json
import os
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

#: Smoke floors: an order of magnitude of headroom against measured
#: numbers (compiled ~2.5+ M instr/s, ~2x speedup on dev hardware), so
#: only a catastrophic regression or a broken engine trips CI.
SMOKE_MIN_COMPILED_IPS = 300_000.0
SMOKE_MIN_SPEEDUP = 1.15

#: Full-mode acceptance: the compiled engine's reason to exist.
FULL_MIN_GEOMEAN_SPEEDUP = 2.0


def _best_native(workload, engine):
    """Best-of-N native wall time; returns (seconds, instructions)."""
    best = float("inf")
    instructions = 0
    for _ in range(ROUNDS):
        instance = workload.instantiate(N_THREADS)
        t0 = time.perf_counter()
        machine = run_instance(instance, engine=engine)
        best = min(best, time.perf_counter() - t0)
        instructions = machine.total_instructions
    return best, instructions


def _best_traced(workload, engine):
    """Best-of-N traced wall time; returns (seconds, instructions, traces)."""
    best = float("inf")
    instructions = 0
    traces = None
    for _ in range(ROUNDS):
        instance = workload.instantiate(N_THREADS)
        t0 = time.perf_counter()
        traces, machine = trace_instance(instance, engine=engine)
        best = min(best, time.perf_counter() - t0)
        instructions = machine.total_instructions
    return best, instructions, traces


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def test_core_engine_throughput(benchmark):
    def experiment():
        rows = {}
        for name in WORKLOADS:
            workload = get_workload(name)
            interp_s, instructions = _best_native(workload, "interp")
            compiled_s, _ = _best_native(workload, "compiled")
            interp_t, _, _ = _best_traced(workload, "interp")
            compiled_t, _, traces = _best_traced(workload, "compiled")
            t0 = time.perf_counter()
            analyze_traces(traces, warp_size=32)
            analyze_s = time.perf_counter() - t0
            rows[name] = {
                "instructions": instructions,
                "interp_ips": instructions / interp_s,
                "compiled_ips": instructions / compiled_s,
                "speedup": interp_s / compiled_s,
                "interp_traced_ips": instructions / interp_t,
                "compiled_traced_ips": instructions / compiled_t,
                "traced_speedup": interp_t / compiled_t,
                "analyze_s": analyze_s,
            }
        return rows

    rows = run_once(benchmark, experiment)

    lines = [
        "Core engine throughput (native = NullHooks, M instr/s; "
        f"{'smoke' if SMOKE else 'full'} mode, {N_THREADS} threads, "
        f"best of {ROUNDS})",
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
