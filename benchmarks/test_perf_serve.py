"""Serving-layer benchmark: throughput, latency, and coalescing.

Boots an in-process :class:`repro.serve.AnalysisServer` (background
event-loop thread, tempdir artifact cache) and drives it through the
load generator's client helpers (``tools/serve_load.py``):

* **cold** -- distinct submits awaited to completion: end-to-end
  analysis latency through the HTTP surface;
* **warm** -- the same specs resubmitted: answered from the job
  registry / artifact store without touching the queue;
* **burst** -- N clients racing one identical new spec: the
  fingerprint-keyed registry must run exactly one underlying
  analysis, every other submit coalescing onto it (or landing
  registry-warm just after it completes).

Results go to ``benchmarks/results/perf_serve.txt`` and the
machine-readable ``BENCH_serve.json`` at the repo root (gated by
``tools/bench_compare.py``; ``--list-metrics BENCH_serve.json``
enumerates the tracked keys).

Two modes:

* full (default): asserts the ISSUE 7 acceptance targets -- warm
  submits >= 5x faster than cold at p50, the N-client burst triggers
  exactly 1 machine execution;
* smoke (``THREADFUSER_PERF_SMOKE=1``): tiny request counts and a
  generous latency floor -- a CI canary, not a measurement.  The
  exactly-one-analysis property is asserted in both modes (it is a
  correctness property, not a performance target).
"""

import json
import os
import sys
import tempfile
import threading
import time

from conftest import emit, run_once

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import serve_load  # noqa: E402  (tools/serve_load.py)

from repro.serve import start_in_background  # noqa: E402

SMOKE = os.environ.get("THREADFUSER_PERF_SMOKE") == "1"

WORKLOAD = "vectoradd"
N_THREADS = 16 if SMOKE else 64
REQUESTS = 2 if SMOKE else 8
BURST_CLIENTS = 3 if SMOKE else 8

#: Full-mode acceptance (ISSUE 7): warm submits answer from the
#: registry/store at least this many times faster than a cold analysis.
FULL_MIN_WARM_SPEEDUP = 5.0

#: Smoke floor: warm must merely not be slower than cold.
SMOKE_MIN_WARM_SPEEDUP = 1.0


def _measure():
    with tempfile.TemporaryDirectory(prefix="tf-serve-bench-") as cache:
        handle = start_in_background(cache_dir=cache, jobs=1)
        try:
            client = serve_load.Client(handle.url)
            specs = [
                {"workload": WORKLOAD, "n_threads": N_THREADS,
                 "seed": 100 + i}
                for i in range(REQUESTS)
            ]
            t_start = time.perf_counter()
            cold = [serve_load.submit_and_wait(client, spec)[0]
                    for spec in specs]
            warm = [serve_load.submit_and_wait(client, spec)[0]
                    for spec in specs]

            burst_spec = {"workload": WORKLOAD, "n_threads": N_THREADS,
                          "seed": 424242}
            executions_before = handle.server.session.executions
            latencies = [0.0] * BURST_CLIENTS
            errors = []
            barrier = threading.Barrier(BURST_CLIENTS)

            def burst(slot):
                try:
                    peer = serve_load.Client(handle.url)
                    barrier.wait()
                    latencies[slot] = serve_load.submit_and_wait(
                        peer, burst_spec)[0]
                    peer.close()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=burst, args=(slot,))
                       for slot in range(BURST_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            elapsed = time.perf_counter() - t_start
            burst_analyses = (handle.server.session.executions
                              - executions_before)

            _status, health = client.request("GET", "/v1/health")
            client.close()
        finally:
            handle.close()

    total = 2 * REQUESTS + BURST_CLIENTS
    cold_p50 = serve_load.percentile(cold, 0.50)
    warm_p50 = serve_load.percentile(warm, 0.50)
    return {
        "workload": WORKLOAD,
        "n_threads": N_THREADS,
        "requests": total,
        "throughput_ips": total / elapsed if elapsed else 0.0,
        "cold_p50_s": cold_p50,
        "cold_p95_s": serve_load.percentile(cold, 0.95),
        "warm_p50_s": warm_p50,
        "warm_p95_s": serve_load.percentile(warm, 0.95),
        "warm_speedup": (cold_p50 / warm_p50) if warm_p50 else 0.0,
        "burst_clients": BURST_CLIENTS,
        "burst_analyses": burst_analyses,
        "burst_p95_s": serve_load.percentile(latencies, 0.95),
        "coalesce_hit_rate": health["coalesce_hit_rate"],
    }


def test_serve_throughput(benchmark):
    metrics = run_once(benchmark, _measure)

    mode = "smoke" if SMOKE else "full"
    lines = [
        f"Serving layer ({mode} mode, {WORKLOAD} @ {N_THREADS} threads, "
        f"{REQUESTS} cold+warm, {BURST_CLIENTS}-client burst)",
        f"  throughput:     {metrics['throughput_ips']:8.2f} req/s",
        f"  cold p50/p95:   {metrics['cold_p50_s'] * 1e3:8.2f} / "
        f"{metrics['cold_p95_s'] * 1e3:.2f} ms",
        f"  warm p50/p95:   {metrics['warm_p50_s'] * 1e3:8.2f} / "
        f"{metrics['warm_p95_s'] * 1e3:.2f} ms  "
        f"({metrics['warm_speedup']:.1f}x)",
        f"  burst:          {metrics['burst_clients']} clients -> "
        f"{metrics['burst_analyses']} analysis",
        f"  coalesce rate:  {metrics['coalesce_hit_rate']:8.2%}",
    ]
    emit("perf_serve_smoke" if SMOKE else "perf_serve", "\n".join(lines))

    if not SMOKE:
        payload = {
            "mode": mode,
            "unit": "seconds of HTTP submit-to-done wall clock",
            "baseline": "cold submits (unique seeds) through the same "
                        "server",
            "serve": metrics,
        }
        with open(os.path.join(ROOT, "BENCH_serve.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # Exactly-one-analysis is a correctness property of the
    # fingerprint-keyed registry; assert it in both modes.
    assert metrics["burst_analyses"] == 1, metrics

    floor = SMOKE_MIN_WARM_SPEEDUP if SMOKE else FULL_MIN_WARM_SPEEDUP
    assert metrics["warm_speedup"] >= floor, (
        f"warm submits were only {metrics['warm_speedup']:.2f}x faster "
        f"than cold (target {floor}x)"
    )
