#!/usr/bin/env python3
"""ThreadFuser benchmark: four fixed-work workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_analyze --seed 1 --seconds 20
    python3 perfbench/run.py --workload design_sweep --trace 1
    python3 perfbench/run.py --workload all          # every workload, table

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs the same op list twice, untraced then with
the layer wrappers of ``spans.py`` installed, and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result document -- shaped ``workloads.<name>.<metric>`` for
``threadfuser index ingest`` and stamped with the environment -- is
written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from hostspeed import HostSpeed  # noqa: E402 - after the path set-up

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: The run length the op lists are sized for (``run_seconds`` in
#: BENCHMARK.json); ``--seconds`` scales the lists against it.
REFERENCE_SECONDS = 20
DEFAULT_SEED = 1
#: Host-speed samples taken around each set-up.
SETUP_SAMPLES = 6

END_TO_END = (("setup_s", "s"), ("throughput_ips", "1/s"),
              ("p50_ms", "ms"), ("p90_ms", "ms"), ("peak_rss_mb", "MiB"))

#: Per-layer self seconds: metric name -> span name.
SELF_TIMES = {
    "workloads.build_s": "workloads.build",
    "machine.run_s": "machine.run",
    "tracer.pack_s": "tracer.pack",
    "core.prepare_s": "core.prepare",
    "core.replay_s": "core.replay",
    "pool.replay_s": "pool.replay",
    "artifacts.serialize_s": "artifacts.serialize",
    "artifacts.write_s": "artifacts.write",
    "artifacts.read_s": "artifacts.read",
    "index.write_s": "index.write",
    "session.self_s": "session",
    "tracegen.generate_s": "tracegen.generate",
    "simulator.gpu_s": "simulator.gpu",
    "cpusim.cpu_s": "cpusim.cpu",
}
COUNTS = ("machine.thread_instructions", "core.issues",
          "core.thread_instructions", "artifacts.bytes_written",
          "simulator.warp_instructions")
SERVE_MS = ("serve.submit_ms", "serve.queue_wait_ms", "serve.run_ms",
            "serve.warm_run_ms", "serve.registry_hit_ms")
DIAL_SETTINGS = [f"f{pct}-d{depth}" for pct in (0, 25, 50, 100)
                 for depth in (1, 3)]

PER_LAYER = (
    [("harness.import_s", "s"), ("unattributed_share", "1"),
     ("trace_overhead", "1")]
    + [(name, "s") for name in SELF_TIMES]
    + [(name, "count") for name in COUNTS]
    + [("memo.hit_rate", "1"), ("replay.vector_token_fraction", "1"),
       ("pool.worker_failures", "count"), ("pool.fallbacks", "count"),
       ("simulator.host_ns_per_warp_inst", "ns")]
    + [(name, "ms") for name in SERVE_MS]
    + [("serve.coalesce_hit_rate", "1"), ("serve.executions", "count"),
       ("serve.rejected", "count")]
    + [(f"dial.{setting}.replay_s", "s") for setting in DIAL_SETTINGS]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cold_analyze, design_sweep, serve_mixed, "
                             "speedup_projection, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- one pass over the op list ----------------------------------------------


def one_pass(cls, args, work_dir, traced, setup_reps, spans):
    """Set up ``setup_reps`` times (keeping the last), then run the ops.

    Returns ``(workload, setup_times, wall_s, peak_rss_mb)``; the
    workload object holds the latencies, rows and failures.
    """
    setup_times = []
    scale = args.seconds / REFERENCE_SECONDS
    workload = setup_host = None
    try:
        for rep in range(setup_reps):
            if workload is not None:
                workload.teardown()
                workload = None
                # Free the last set-up's cycles now, so the peak RSS does
                # not depend on when the collector would have run.
                gc.collect()
            rep_dir = os.path.join(work_dir, f"rep{rep}")
            os.makedirs(rep_dir)
            workload = cls(args.seed, scale, rep_dir, traced)
            if setup_host is None:
                # Set-up runs on the CPUs the workload's ops run on.
                setup_host = HostSpeed(cpus=workload.host.cpus)
            for _ in range(SETUP_SAMPLES):
                setup_host.sample()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        for _ in range(SETUP_SAMPLES):
            setup_host.sample()
        workload.setup_slowdown = setup_host.slowdown()
        workload.setup_steal_share = setup_host.steal_share()
        # Freeze what set-up built (traced corpora, sessions): otherwise
        # each collection in the timed phase walks the harness's whole
        # corpus, which made speedup_projection ops 75% slower and their
        # times erratic -- a cost of the harness, not of the program.
        gc.collect()
        gc.freeze()
        before = dict(spans.counts)
        start = time.perf_counter()
        workload.run_ops(spans)
        wall = time.perf_counter() - start
        if workload.INLINE_SAMPLING:
            wall -= workload.host.spent
        workload.timed_counts = {
            name: spans.counts.get(name, 0) - before.get(name, 0)
            for name in spans.counts}
        rss = workload.peak_rss_mb()
        workload.check()
    finally:
        gc.unfreeze()
        if workload is not None:
            workload.teardown()
    return workload, setup_times, wall, rss


def end_to_end(workload, setup_times, wall, rss):
    """The end-to-end metrics, and the result document's extra numbers."""
    from workloads import percentile

    ops = workload.latencies["ops"]
    host = workload.host
    raw = {
        "setup_s": statistics.median(setup_times),
        "throughput_ips": workload.attempted / wall,
        "p50_ms": 1000.0 * percentile(ops, 50),
        "p90_ms": 1000.0 * percentile(ops, 90),
    }
    # Timings at the reference host speed (see hostspeed.py).
    slowdown = host.slowdown()
    scaled = {kind: host.scale(workload.latencies[kind],
                               workload.starts[kind])
              for kind in workload.latencies}
    metrics = {
        "setup_s": raw["setup_s"] / workload.setup_slowdown,
        "throughput_ips": raw["throughput_ips"] * slowdown,
        "p50_ms": 1000.0 * percentile(scaled["ops"], 50),
        "p90_ms": 1000.0 * percentile(scaled["ops"], 90),
        "peak_rss_mb": rss,
    }
    extra = {f"raw_{name}": value for name, value in raw.items()}
    extra.update({
        "host_slowdown": slowdown,
        "host_samples": len(host.samples),
        "setup_host_slowdown": workload.setup_slowdown,
        "error_rate": workload.failed / workload.attempted,
        "p50_ms_samples": len(ops), "p90_ms_samples": len(ops),
        "setup_s_samples": len(setup_times),
        "timed_s": wall, "ops": workload.attempted,
        "steal_share": host.steal_share(),
        "setup_steal_share": workload.setup_steal_share,
    })
    warm = workload.latencies.get("warm")
    if warm:
        extra.update({
            "warm_p50_ms": 1000.0 * percentile(scaled["warm"], 50),
            "warm_p90_ms": 1000.0 * percentile(scaled["warm"], 90),
            "warm_p50_ms_samples": len(warm),
            "warm_p90_ms_samples": len(warm),
        })
    return metrics, extra


def per_layer(workload, spans, traced_ips, untraced_ips, import_s):
    """The per-layer metrics of the traced pass."""
    ops = set(workload.op_labels)
    selfs = spans.self_times(ops)
    counts = dict(workload.timed_counts)
    for name, value in workload.server_counts.items():
        counts[name] = counts.get(name, 0) + value
    metrics = {"harness.import_s": import_s,
               "trace_overhead": untraced_ips / traced_ips}
    op_wall = workload.op_wall_s()
    attributed = sum(selfs.values())
    metrics["unattributed_share"] = 1.0 - attributed / op_wall
    for metric, name in SELF_TIMES.items():
        metrics[metric] = selfs.get(name, 0.0)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    lookups = counts.get("memo.warp_lookups", 0)
    metrics["memo.hit_rate"] = (counts.get("memo.warp_hits", 0) / lookups
                                if lookups else 0.0)
    total = counts.get("replay.vector_total_tokens", 0)
    metrics["replay.vector_token_fraction"] = (
        counts.get("replay.vector_tokens", 0) / total if total else 0.0)
    faults = workload.fault_counts
    metrics["pool.worker_failures"] = faults.get("pool.worker_failures", 0)
    metrics["pool.fallbacks"] = (faults.get("pool.fallbacks", 0)
                                 + counts.get("pool.fallbacks", 0))
    warp_insts = metrics["simulator.warp_instructions"]
    metrics["simulator.host_ns_per_warp_inst"] = (
        1e9 * metrics["simulator.gpu_s"] / warp_insts if warp_insts else 0.0)
    serve = workload.layer_stats()
    for name in SERVE_MS:
        metrics[name] = serve.get(name, 0.0)
    health = workload.health
    metrics["serve.coalesce_hit_rate"] = health.get("coalesce_hit_rate", 0.0)
    metrics["serve.executions"] = health.get("executions", 0)
    metrics["serve.rejected"] = health.get("requests", {}).get("rejected", 0)
    for setting in DIAL_SETTINGS:
        label = f"dial.{setting}"
        dial_ops = {op for op, name in workload.op_labels.items()
                    if name == label}
        dial_selfs = spans.self_times(dial_ops) if dial_ops else {}
        metrics[f"{label}.replay_s"] = (dial_selfs.get("core.replay", 0.0)
                                        + dial_selfs.get("pool.replay", 0.0))
    return metrics


# -- the run -------------------------------------------------------------------


def environment(args, cls):
    from repro.core import vector
    from workloads import POLL_S

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy_active": int(vector.numpy_active()),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE",
                                                  ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_reps": cls.SETUP_REPS,
        "serve_poll_s": POLL_S,
    }


def expected_digest(args, name):
    with open(os.path.join(HERE, "expected.json")) as inp:
        expected = json.load(inp).get(name)
    if (expected and expected["seed"] == args.seed
            and expected["seconds"] == args.seconds):
        return expected["digest"]
    return None


def run_workload(args) -> int:
    if os.environ.get("THREADFUSER_FAULTS"):
        print("perfbench: THREADFUSER_FAULTS is set; refusing to benchmark "
              "an injected-fault run", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        import repro  # noqa: F401 - timed as harness.import_s
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT}/src ({exc})",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    import spans as spans_mod
    import workloads as workloads_mod

    cls = workloads_mod.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r} (one of "
              f"{sorted(workloads_mod.WORKLOADS)})", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        untraced = spans_mod.Spans()
        workload, setup_times, wall, rss = one_pass(
            cls, args, os.path.join(work_dir, "untraced"), False,
            1 if args.trace else cls.SETUP_REPS, untraced)
        metrics, extra = end_to_end(workload, setup_times, wall, rss)
        attempted, failed = workload.attempted, workload.failed
        errors = list(workload.errors)
        rows = workload.rows
        if args.trace:
            spans = spans_mod.Spans()
            spans_mod.install(spans)
            try:
                traced, _setups, traced_wall, _rss = one_pass(
                    cls, args, os.path.join(work_dir, "traced"), True, 1,
                    spans)
            finally:
                spans.uninstall()
            traced.attach_server(spans)
            attempted += traced.attempted
            failed += traced.failed
            errors += traced.errors
            if traced.rows != rows:
                failed += 1
                errors.append("traced pass results differ from untraced")
            traced_ips = (traced.attempted / traced_wall
                          * traced.host.slowdown())
            metrics = per_layer(traced, spans, traced_ips,
                                metrics["throughput_ips"], import_s)
            os.makedirs(OUT_ROOT, exist_ok=True)
            spans.dump(os.path.join(
                OUT_ROOT, f"{args.workload}-seed{args.seed}-spans.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    result_digest = workloads_mod.digest(rows)
    expect = expected_digest(args, args.workload)
    if expect is not None and expect != result_digest:
        failed += 1
        errors.append(f"output digest {result_digest} != committed {expect}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    doc = {
        "workloads": {args.workload: dict(metrics, **({} if args.trace
                                                      else extra))},
        "env": environment(args, cls),
        "digest": result_digest,
        "digest_checked": expect is not None,
        "errors": errors,
    }
    os.makedirs(OUT_ROOT, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(
            OUT_ROOT, f"{args.workload}-seed{args.seed}{suffix}.json"),
            "w") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
    for message in errors:
        print(f"perfbench: error: {message}", file=sys.stderr)
    for name, value in sorted(doc["workloads"][args.workload].items()):
        print(f"  {args.workload}.{name} = {value:.6g} {units.get(name, '')}")
    print(f"  digest {result_digest} "
          f"({'checked' if expect else 'not committed for this seed'})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    names = ("cold_analyze", "design_sweep", "serve_mixed",
             "speedup_projection")
    status = 0
    table = []
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        if not lines:
            table.append((name, "run failed", "", "", ""))
            continue
        result = json.loads(lines[-1])
        suffix = "-trace" if args.trace else ""
        with open(os.path.join(
                OUT_ROOT, f"{name}-seed{args.seed}{suffix}.json")) as inp:
            detail = json.load(inp)["workloads"][name]
        for metric, entry in result["metrics"].items():
            samples = detail.get(f"{metric}_samples", "")
            table.append((name, metric, f"{entry['value']:.6g}",
                          entry["unit"], samples))
        table.append((name, "error_rate",
                      f"{result['failed'] / result['attempted']:.6g}", "1",
                      result["attempted"]))
    print(f"{'workload':<20}{'metric':<34}{'value':>12}  {'unit':<6}samples")
    for row in table:
        print(f"{row[0]:<20}{row[1]:<34}{row[2]:>12}  {row[3]:<6}{row[4]}")
    return status


def stop_children() -> None:
    """Stop and reap every process the run started, whatever the exit path.

    Each workload's teardown stops its own processes (the pool workers,
    the analysis server).  The pool's shared-memory arenas also start
    multiprocessing's resource tracker, which would otherwise exit only
    after this process has gone and then be left unreaped.  It is closed
    and waited for here, once the pool and every arena are shut, so
    nothing registers with it again.
    """
    pool = sys.modules.get("repro.pool")
    if pool is not None:
        pool.shutdown()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:  # noqa: BLE001 - a crashed run prints no result
        traceback.print_exc()
        return 1
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
