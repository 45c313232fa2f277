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

On top of the single-session latency shapes, a **(clients x shards)
saturation sweep** boots the server at shards in {1, 2, 4} (fresh
cache each; ``repro.shards.ShardPool`` shard worker processes) and
drives distinct cold sweep jobs from concurrent clients -- the
measured scaling curve of the horizontal serve layer
(``saturation.shards.<N>.throughput_ips`` and the derived
``saturation.shards2_speedup`` / ``saturation.shards4_speedup``).
One in-process row at ``jobs=2`` (``saturation.inline_jobs2``) is the
alternative sharding has to beat: ``saturation.shards2_vs_inline_jobs2``
is shards=2 throughput over it.
The burst is replayed against the sharded server too: exactly one
machine execution must happen even when the duplicate submits land on
different shards.

Two modes:

* full (default): asserts the ISSUE 7 acceptance targets -- warm
  submits >= 5x faster than cold at p50, the N-client burst triggers
  exactly 1 machine execution -- plus the ISSUE 10 scaling target:
  shards=4 cold-sweep throughput >= 2x shards=1 **when the machine
  has >= 4 cores** (``saturation.cores`` records what the numbers
  were measured on; on fewer cores only a no-collapse floor applies,
  since the workers time-slice one core);
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

#: The saturation sweep's shard axis, job count, and client threads.
SAT_SHARDS = (1, 2) if SMOKE else (1, 2, 4)
SAT_JOBS = 2 if SMOKE else 8
SAT_CLIENTS = 2 if SMOKE else 4
SAT_WIDTHS = (8, 16) if SMOKE else (8, 16, 32)

#: Saturation cells run heavier than the latency shapes: per-cell
#: compute has to dominate the per-cell dispatch overhead (pipe RTTs,
#: report pickling) or the scaling curve measures IPC, not analysis.
SAT_THREADS = 16 if SMOKE else 256

#: Full-mode acceptance (ISSUE 7): warm submits answer from the
#: registry/store at least this many times faster than a cold analysis.
FULL_MIN_WARM_SPEEDUP = 5.0

#: Smoke floor: warm must merely not be slower than cold.
SMOKE_MIN_WARM_SPEEDUP = 1.0

#: Full-mode acceptance (ISSUE 10): shards=4 cold-sweep throughput
#: >= 2x shards=1.  Only enforceable where 4 workers actually get
#: cores -- gated on ``os.cpu_count() >= 4`` (true on the CI runners).
FULL_MIN_SHARDS4_SPEEDUP = 2.0

#: Everywhere else (including single-core containers, where N workers
#: time-slice one core and every cross-shard cell re-reads its trace
#: from the store), sharding must merely not collapse throughput.
MIN_NO_COLLAPSE_SPEEDUP = 0.3


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


def _sharded_burst(handle):
    """Burst of identical submits against a sharded server.

    Returns the number of machine executions the burst triggered,
    measured through ``/v1/health``'s top-level ``executions`` total
    (the only counter that sees the shard processes).  Must be 1:
    coalescing is parent-side, so duplicates absorb into one in-flight
    fingerprint no matter which shard owns the computation.
    """
    burst_spec = {"workload": WORKLOAD, "n_threads": N_THREADS,
                  "seed": 515151}
    probe = serve_load.Client(handle.url)
    _status, before = probe.request("GET", "/v1/health")
    errors = []
    barrier = threading.Barrier(BURST_CLIENTS)

    def burst():
        try:
            peer = serve_load.Client(handle.url)
            barrier.wait()
            serve_load.submit_and_wait(peer, burst_spec)
            peer.close()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=burst)
               for _ in range(BURST_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    _status, after = probe.request("GET", "/v1/health")
    probe.close()
    return (serve_load.executions_of(after)
            - serve_load.executions_of(before))


def _saturate(shards, jobs):
    """One saturation row on a fresh server; the shards=2 one also
    replays the burst.  Returns ``(row, burst_analyses)``."""
    with tempfile.TemporaryDirectory(prefix="tf-serve-sat-") as cache:
        handle = start_in_background(cache_dir=cache, jobs=jobs,
                                     shards=shards)
        try:
            row = serve_load.run_saturation(
                handle.url, WORKLOAD, SAT_THREADS,
                jobs=SAT_JOBS, clients=SAT_CLIENTS,
                warp_sizes=SAT_WIDTHS)
            burst = _sharded_burst(handle) if shards == 2 else None
        finally:
            handle.close()
    return row, burst


def _measure_saturation():
    """The (clients x shards) scaling curve, the in-process jobs=2 row
    sharding has to beat, and the sharded burst."""
    by_shards = {}
    burst_analyses = None
    for shards in SAT_SHARDS:
        by_shards[str(shards)], burst = _saturate(shards, jobs=1)
        if shards == 2:
            burst_analyses = burst
    inline_jobs2, _burst = _saturate(0, jobs=2)
    base = by_shards["1"]["throughput_ips"]
    out = {
        "cores": os.cpu_count() or 1,
        "clients": SAT_CLIENTS,
        "jobs": SAT_JOBS,
        "shards": by_shards,
        "inline_jobs2": inline_jobs2,
        "shards2_vs_inline_jobs2": (
            by_shards["2"]["throughput_ips"]
            / inline_jobs2["throughput_ips"]
            if inline_jobs2["throughput_ips"] else 0.0),
        "sharded_burst_analyses": burst_analyses,
    }
    for shards in SAT_SHARDS[1:]:
        speedup = (by_shards[str(shards)]["throughput_ips"] / base
                   if base else 0.0)
        out[f"shards{shards}_speedup"] = speedup
    return out


def test_serve_throughput(benchmark):
    metrics = run_once(benchmark, _measure)
    saturation = _measure_saturation()

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
        f"  saturation ({SAT_CLIENTS} clients, {SAT_JOBS} sweep jobs, "
        f"{saturation['cores']} core(s)):",
    ]
    for shards in SAT_SHARDS:
        cell = saturation["shards"][str(shards)]
        speedup = saturation.get(f"shards{shards}_speedup")
        suffix = f"  ({speedup:.2f}x)" if speedup is not None else ""
        lines.append(f"    shards={shards}: "
                     f"{cell['throughput_ips']:8.2f} cells/s{suffix}")
    lines.append(f"    inline jobs=2: "
                 f"{saturation['inline_jobs2']['throughput_ips']:7.2f} "
                 f"cells/s  (shards=2 is "
                 f"{saturation['shards2_vs_inline_jobs2']:.2f}x)")
    lines.append(f"  sharded burst:  {BURST_CLIENTS} clients -> "
                 f"{saturation['sharded_burst_analyses']} analysis "
                 f"(shards=2)")
    emit("perf_serve_smoke" if SMOKE else "perf_serve", "\n".join(lines))

    if not SMOKE:
        payload = {
            "mode": mode,
            "unit": "seconds of HTTP submit-to-done wall clock",
            "baseline": "cold submits (unique seeds) through the same "
                        "server",
            "serve": metrics,
            "saturation": saturation,
        }
        with open(os.path.join(ROOT, "BENCH_serve.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # Exactly-one-analysis is a correctness property of the
    # fingerprint-keyed registry; assert it in both modes -- and it
    # must hold across shard boundaries (parent-side coalescing).
    assert metrics["burst_analyses"] == 1, metrics
    assert saturation["sharded_burst_analyses"] == 1, saturation

    floor = SMOKE_MIN_WARM_SPEEDUP if SMOKE else FULL_MIN_WARM_SPEEDUP
    assert metrics["warm_speedup"] >= floor, (
        f"warm submits were only {metrics['warm_speedup']:.2f}x faster "
        f"than cold (target {floor}x)"
    )

    # Scaling: the hard >= 2x target needs real cores under the
    # workers; anywhere else (1-core containers) sharding must merely
    # not collapse throughput under the process/IPC overhead.
    for shards in SAT_SHARDS[1:]:
        speedup = saturation[f"shards{shards}_speedup"]
        assert speedup >= MIN_NO_COLLAPSE_SPEEDUP, (
            f"shards={shards} collapsed cold-sweep throughput to "
            f"{speedup:.2f}x of shards=1"
        )
    if not SMOKE and saturation["cores"] >= 4:
        assert saturation["shards4_speedup"] >= \
            FULL_MIN_SHARDS4_SPEEDUP, (
                f"shards=4 was only "
                f"{saturation['shards4_speedup']:.2f}x over shards=1 "
                f"(target {FULL_MIN_SHARDS4_SPEEDUP}x on "
                f"{saturation['cores']} cores)"
            )
