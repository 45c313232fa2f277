"""Command-line interface: the zero-effort entry point for developers.

Subcommands mirror the paper's workflows::

    threadfuser list                         # the Table I catalog
    threadfuser analyze memcached            # efficiency + per-function
    threadfuser speedup nbody                # cycle-level projection
    threadfuser tracegen pigz -o pigz.trace  # simulator trace file
    threadfuser cache info                   # artifact store maintenance
    threadfuser index query --workload pigz  # query the result index
    threadfuser pool info                    # worker-pool diagnostics

Workload commands run through a cached :class:`~repro.session.
AnalysisSession`: traces, DCFG/IPDOM tables, and reports are persisted in
a content-addressed store (``--cache-dir``, default
``$THREADFUSER_CACHE_DIR`` or ``~/.cache/threadfuser``), so repeating a
command with the same parameters skips machine execution entirely.
``--jobs N`` (``analyze``, ``profile`` and ``sweep``) parallelizes warp
replay; ``--no-cache`` opts out.

``--profile`` (or the dedicated ``threadfuser profile`` subcommand)
turns on the :mod:`repro.obs` observability layer: the command prints a
stage-time/counter table and writes a schema-versioned
``telemetry.json`` (``--telemetry-out``); see ``docs/OBSERVABILITY.md``.

``threadfuser index`` queries the sqlite result index over the store
(see ``docs/INDEX.md``) with a stable exit-code contract: **0** success,
**1** a tracked metric regressed beyond ``history --max-regression``,
**2** bad input (unknown run key, ambiguous prefix, unknown metric,
malformed bench file or predicate), **3** a typed
:class:`~repro.errors.ReproError` (e.g. a corrupt ``index.db``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .artifacts import ArtifactStore, default_cache_dir
from .core import AnalyzerConfig
from .errors import ReproError
from .obs import Recorder
from .session import AnalysisSession
from .simulator import project_speedup, rtx3070, small_simt_cpu
from .tracegen import generate_kernel_trace, save_kernel_trace
from .tracer import save_traces
from .workloads import all_workloads, get_workload


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_int_list(text: str) -> List[int]:
    """argparse type: comma-separated positive integers."""
    return [_positive_int(item) for item in text.split(",") if item]


def _add_workload_options(parser: argparse.ArgumentParser,
                          jobs: bool = False) -> None:
    """The workload and session options; ``--jobs`` only with ``jobs``.

    Only commands whose replay can run on the worker pool take
    ``--jobs``: a replay that carries a warp-trace visitor always runs
    serially.
    """
    parser.add_argument("workload", help="workload name (see 'list')")
    parser.add_argument("--threads", type=_positive_int, default=96,
                        help="logical threads to trace (default 96)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input-generation seed (default 7)")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for warp replay "
                                 "(default 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                             "$THREADFUSER_CACHE_DIR or ~/.cache/threadfuser)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact cache")
    parser.add_argument("--profile", action="store_true",
                        help="print a stage-time/counter table and write "
                             "telemetry.json (see docs/OBSERVABILITY.md)")
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="telemetry.json destination "
                             "(default ./telemetry.json; with --profile)")


def _session_from_args(args) -> AnalysisSession:
    if getattr(args, "no_cache", False):
        cache_dir = None
    else:
        cache_dir = args.cache_dir or default_cache_dir()
    recorder = Recorder() if getattr(args, "profile", False) else None
    return AnalysisSession(cache_dir=cache_dir,
                           jobs=getattr(args, "jobs", 1), recorder=recorder)


def _finish_profile(args, session: AnalysisSession,
                    fields=None) -> None:
    """The ``--profile`` epilogue of a workload command.

    Prints the stage-time/counter table, writes ``telemetry.json``
    (``--telemetry-out``, default ``./telemetry.json``) and, when
    ``fields`` names the profiled run and the session has a store,
    persists the document as a ``telemetry`` artifact too.
    """
    if not getattr(args, "profile", False):
        return
    telemetry = session.telemetry()
    telemetry.meta["command"] = args.command
    workload = getattr(args, "workload", None)
    if workload:
        telemetry.meta["workload"] = workload
    print()
    print(telemetry.format_table())
    out = getattr(args, "telemetry_out", None) or "telemetry.json"
    telemetry.save(out)
    print(f"\ntelemetry written to {out}")
    if fields is not None:
        stored = session.store_telemetry(telemetry, fields)
        if stored:
            print(f"telemetry artifact stored at {stored}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadfuser",
        description="SIMT analysis of MIMD programs (MICRO'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload catalog")

    analyze = sub.add_parser("analyze",
                             help="SIMT efficiency + per-function report")
    _add_workload_options(analyze, jobs=True)
    analyze.add_argument("--warp-size", type=_positive_int, default=32)
    analyze.add_argument("--batching", default="linear",
                         choices=["linear", "cpu_affine", "strided"])
    analyze.add_argument("--emulate-locks", action="store_true",
                         help="serialize same-lock critical sections")
    analyze.add_argument("--lock-reconvergence", default="unlock",
                         choices=["unlock", "exit"])
    analyze.add_argument("--opt-level", default="O1",
                         choices=["O0", "O1", "O2", "O3"],
                         help="compile at this optimization level first")
    analyze.add_argument("--save-traces", metavar="FILE",
                         help="also write the trace file")

    profile = sub.add_parser(
        "profile",
        help="profile the analysis pipeline on a workload "
             "(analyze with --profile always on)")
    _add_workload_options(profile, jobs=True)
    profile.add_argument("--warp-size", type=_positive_int, default=32)
    profile.add_argument("--batching", default="linear",
                         choices=["linear", "cpu_affine", "strided"])
    profile.add_argument("--emulate-locks", action="store_true")
    profile.add_argument("--lock-reconvergence", default="unlock",
                         choices=["unlock", "exit"])
    profile.add_argument("--opt-level", default="O1",
                         choices=["O0", "O1", "O2", "O3"])

    speedup = sub.add_parser("speedup",
                             help="project GPU speedup vs a 20-core CPU")
    _add_workload_options(speedup)
    speedup.add_argument("--warp-size", type=_positive_int, default=32)
    speedup.add_argument("--gpu", default="rtx3070",
                         choices=["rtx3070", "small-simt-cpu"])
    speedup.add_argument("--launch-threads", type=_positive_int,
                         default=None,
                         help="upscale to this launch size "
                              "(default: the paper's #SIMT threads)")

    tracegen = sub.add_parser("tracegen",
                              help="emit an Accel-Sim-style warp trace")
    _add_workload_options(tracegen)
    tracegen.add_argument("--warp-size", type=_positive_int, default=32)
    tracegen.add_argument("-o", "--output", required=True,
                          help="output trace file")

    sweep = sub.add_parser(
        "sweep", help="SIMT efficiency across warp widths (Fig. 1 row)")
    _add_workload_options(sweep, jobs=True)
    sweep.add_argument("--warp-sizes", type=_positive_int_list,
                       default="8,16,32",
                       help="comma-separated widths (default 8,16,32)")
    sweep.add_argument("--emulate-locks", action="store_true")
    sweep.add_argument("--lock-reconvergence", default="unlock",
                       choices=["unlock", "exit"])

    simulate = sub.add_parser(
        "simulate", help="run a saved warp-trace file on the simulator")
    simulate.add_argument("trace", help="file written by 'tracegen'")
    simulate.add_argument("--gpu", default="rtx3070",
                          choices=["rtx3070", "small-simt-cpu"])
    simulate.add_argument("--replicate", type=_positive_int, default=1,
                          help="launch the traced warps N times")
    simulate.add_argument("--scheduler", default=None,
                          choices=["gto", "lrr"])

    cache = sub.add_parser("cache", help="artifact cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    info = cache_sub.add_parser("info",
                                help="entry/byte totals per artifact kind")
    ls = cache_sub.add_parser("ls", help="list stored artifacts")
    clear = cache_sub.add_parser("clear", help="delete stored artifacts")
    clear.add_argument("--kind", default=None,
                       choices=["traces", "dcfgs", "report", "telemetry"],
                       help="only delete this artifact kind")
    clear.add_argument("--quarantined", action="store_true",
                       help="only delete quarantined (corrupt) entries")
    for sub_parser in (info, ls, clear):
        sub_parser.add_argument(
            "--cache-dir", default=None,
            help="artifact cache directory (default: "
                 "$THREADFUSER_CACHE_DIR or ~/.cache/threadfuser)")

    index = sub.add_parser(
        "index",
        help="query the sqlite result index (see docs/INDEX.md)",
        description="Query, diff, and track results across runs from "
                    "the store's index.db -- no payload is ever "
                    "unpickled.  Exit codes: 0 success; 1 regression "
                    "beyond --max-regression; 2 bad input; 3 typed "
                    "pipeline error.")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    rebuild = index_sub.add_parser(
        "rebuild", help="regenerate index.db from the artifact store")
    query = index_sub.add_parser(
        "query", help="filtered run rows (workload, efficiency, "
                      "hotspot, counter)")
    query.add_argument("--workload", default=None,
                       help="exact workload name")
    query.add_argument("--opt-level", default=None,
                       choices=["O0", "O1", "O2", "O3"])
    query.add_argument("--warp-size", type=int, default=None)
    query.add_argument("--min-efficiency", type=float, default=None,
                       metavar="FRAC",
                       help="keep runs with SIMT efficiency >= FRAC")
    query.add_argument("--max-efficiency", type=float, default=None,
                       metavar="FRAC",
                       help="keep runs with SIMT efficiency <= FRAC")
    query.add_argument("--hotspot", default=None, metavar="FUNC[@ADDR]",
                       help="keep runs with a divergence hotspot in "
                            "FUNC (optionally at one block address)")
    query.add_argument("--counter", default=None, metavar="EXPR",
                       help="telemetry predicate, e.g. "
                            "'replay.divergence_events>100'")
    query.add_argument("--limit", type=int, default=None)
    diff = index_sub.add_parser(
        "diff", help="field/hotspot/counter differences of two runs")
    diff.add_argument("key_a", metavar="KEY_A",
                      help="run key (unique prefix ok; see 'index query')")
    diff.add_argument("key_b", metavar="KEY_B")
    history = index_sub.add_parser(
        "history", help="perf trajectory of bench metrics")
    history.add_argument("--metric", default=None,
                         help="flattened metric name, e.g. "
                              "geomean_speedup (see "
                              "'bench_compare --list-metrics')")
    history.add_argument("--workload", default=None,
                         help="per-workload pivot: every tracked "
                              "workloads.<name>.* trajectory at once "
                              "(exactly one of --metric/--workload)")
    history.add_argument("--label", default=None,
                         help="restrict to one bench label "
                              "(default: every label tracking the metric)")
    history.add_argument("--max-regression", type=float, default=None,
                         metavar="PCT",
                         help="exit 1 when the newest point regressed "
                              "beyond PCT%% vs the previous one")
    ingest = index_sub.add_parser(
        "ingest", help="record BENCH_*.json snapshots in the trajectory")
    ingest.add_argument("files", nargs="+", metavar="BENCH.json")
    ingest.add_argument("--label", default=None,
                        help="trajectory label (default: file basename)")
    for sub_parser in (rebuild, query, diff, history, ingest):
        sub_parser.add_argument(
            "--cache-dir", default=None,
            help="artifact cache directory (default: "
                 "$THREADFUSER_CACHE_DIR or ~/.cache/threadfuser)")
        sub_parser.add_argument(
            "--json", action="store_true",
            help="machine-readable JSON output")

    serve = sub.add_parser(
        "serve",
        help="run the analysis server (see docs/SERVING.md)",
        description="Long-running HTTP/JSON analysis server over a "
                    "persistent session: submit analyze/sweep jobs, "
                    "poll or stream stage progress, fetch reports and "
                    "telemetry, probe pool/cache health.  Identical "
                    "in-flight requests coalesce onto one computation; "
                    "warm fingerprints answer from the artifact store.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8787)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="pending-job bound; submits beyond it get a "
                            "typed 503 (default 64)")
    serve.add_argument("--cache-dir", default=None,
                       help="artifact cache directory (default: "
                            "$THREADFUSER_CACHE_DIR or ~/.cache/threadfuser)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk artifact cache (loses the "
                            "store-warm fast path across restarts)")

    pool = sub.add_parser("pool", help="persistent worker-pool diagnostics")
    pool_sub = pool.add_subparsers(dest="pool_command", required=True)
    pool_info = pool_sub.add_parser(
        "info", help="worker, reuse, and arena statistics")
    pool_info.add_argument("--jobs", type=int, default=2,
                           help="workers to probe with (default 2)")
    pool_info.add_argument("--no-probe", action="store_true",
                           help="only report capabilities; do not spin up "
                                "workers or attach a probe arena")
    return parser


def _cmd_list(_args) -> int:
    print(f"{'workload':<22} {'suite':<16} {'#SIMT thr':>10} {'GPU?':>5}")
    for w in sorted(all_workloads(), key=lambda w: (w.suite, w.name)):
        print(f"{w.name:<22} {w.suite:<16} {w.paper_simt_threads:>10} "
              f"{'yes' if w.has_gpu_impl else '':>5}")
    return 0


def _cmd_analyze(args) -> int:
    session = _session_from_args(args)
    instance = session.build(args.workload, args.threads, seed=args.seed)
    config = AnalyzerConfig(
        warp_size=args.warp_size,
        batching=args.batching,
        emulate_locks=args.emulate_locks,
        lock_reconvergence=args.lock_reconvergence,
    )
    report = session.analyze(
        args.workload, n_threads=args.threads, seed=args.seed,
        opt_level=args.opt_level, config=config,
    )
    print(report.format_text())
    hotspots = report.divergence_hotspots(
        top=5, program=session.transform(instance.program, args.opt_level)
    )
    if hotspots:
        print("  divergence hotspots (warp splits per branch):")
        for function, addr, count, label in hotspots:
            where = f"{function}:{label}" if label else f"{function}@{addr:#x}"
            print(f"    {where:<40} {count}")
    if getattr(args, "save_traces", None):
        traces = session.trace(
            args.workload, n_threads=args.threads, seed=args.seed,
            opt_level=args.opt_level,
        )
        save_traces(traces, args.save_traces)
        print(f"\ntraces written to {args.save_traces}")
    _finish_profile(args, session, fields=dict(
        session.trace_fields(args.workload, args.threads, args.seed,
                             args.opt_level),
        analyzer=config.fingerprint(),
    ))
    return 0


def _cmd_profile(args) -> int:
    """``threadfuser profile``: analyze with ``--profile`` forced on."""
    args.profile = True
    return _cmd_analyze(args)


def _cmd_speedup(args) -> int:
    session = _session_from_args(args)
    workload = get_workload(args.workload)
    instance = session.build(args.workload, args.threads, seed=args.seed)
    traces = session.trace(
        args.workload, n_threads=args.threads, seed=args.seed
    )
    config = rtx3070() if args.gpu == "rtx3070" else small_simt_cpu()
    launch = args.launch_threads or workload.paper_simt_threads
    result = project_speedup(
        traces, instance.program, gpu_config=config,
        warp_size=min(args.warp_size, config.warp_size),
        launch_threads=launch,
    )
    print(f"workload:          {workload.name}")
    print(f"machine:           {config.name}")
    print(f"launch threads:    {launch}")
    print(f"SIMT efficiency:   {result.simt_efficiency:.1%}")
    print(f"CPU time:          {result.cpu_seconds * 1e6:.1f} us "
          f"({result.cpu.cycles} cycles)")
    print(f"GPU time:          {result.gpu_seconds * 1e6:.1f} us "
          f"({result.gpu.cycles} cycles, IPC {result.gpu.ipc():.2f})")
    print(f"projected speedup: {result.speedup:.2f}x")
    _finish_profile(args, session)
    return 0


def _cmd_tracegen(args) -> int:
    session = _session_from_args(args)
    instance = session.build(args.workload, args.threads, seed=args.seed)
    traces = session.trace(
        args.workload, n_threads=args.threads, seed=args.seed
    )
    kernel = generate_kernel_trace(traces, instance.program,
                                   warp_size=args.warp_size)
    save_kernel_trace(kernel, args.output)
    print(f"{len(kernel.warps)} warps, {kernel.total_issues} warp "
          f"instructions -> {args.output}")
    _finish_profile(args, session)
    return 0


def _cmd_sweep(args) -> int:
    session = _session_from_args(args)
    config = AnalyzerConfig(
        emulate_locks=args.emulate_locks,
        lock_reconvergence=args.lock_reconvergence,
    )
    reports = session.sweep(
        args.workload, args.warp_sizes, n_threads=args.threads,
        seed=args.seed, config=config,
    )
    print(f"{'warp size':>10} {'SIMT eff':>10} {'issues':>10} "
          f"{'heap txn':>10}")
    for warp_size, report in reports.items():
        print(f"{warp_size:>10} {report.simt_efficiency:>10.1%} "
              f"{report.metrics.issues:>10} {report.heap_transactions:>10}")
    _finish_profile(args, session)
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import GPUSimulator
    from .tracegen import load_kernel_trace

    try:
        kernel = load_kernel_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace file {args.trace!r} "
              f"({exc.strerror or exc})", file=sys.stderr)
        return 2
    config = rtx3070() if args.gpu == "rtx3070" else small_simt_cpu()
    if args.scheduler:
        config.scheduler = args.scheduler
    if kernel.warp_size > config.warp_size:
        print(f"error: trace {args.trace!r} has warp size "
              f"{kernel.warp_size}, wider than {config.name}'s warp size "
              f"{config.warp_size}", file=sys.stderr)
        return 2
    sim = GPUSimulator(config)
    stats = sim.run(kernel, replicate=args.replicate)
    print(f"kernel:         {kernel.name}")
    print(f"machine:        {config.name} ({config.scheduler})")
    print(f"warps:          {len(kernel.warps)} x{args.replicate}")
    print(f"cycles:         {stats.cycles}")
    print(f"instructions:   {stats.instructions}  (IPC {stats.ipc():.2f})")
    print(f"SIMT efficiency:{kernel.simt_efficiency():8.1%}")
    l1 = stats.l1_hits / max(stats.l1_hits + stats.l1_misses, 1)
    print(f"L1 hit rate:    {l1:.1%}   transactions: {stats.transactions}")
    print(f"DRAM traffic:   {stats.dram_bytes} bytes")
    print(f"time:           {stats.seconds(config.clock_ghz) * 1e6:.1f} us")
    return 0


def _cmd_cache(args) -> int:
    store = ArtifactStore(args.cache_dir or default_cache_dir())
    if args.cache_command == "info":
        info = store.info()
        print(f"cache root:   {info['root']}")
        print(f"schema:       v{info['schema']}")
        disk_schema = info.get("disk_schema")
        if disk_schema is not None and disk_schema != info["schema"]:
            print(f"disk schema:  v{disk_schema} (older entries are "
                  "unaddressable; 'cache clear' removes them)")
        print(f"entries:      {info['entries']}  ({info['bytes']} bytes)")
        quarantined = info["quarantined"]
        if quarantined["count"]:
            print(f"quarantined:  {quarantined['count']} corrupt entries "
                  f"({quarantined['bytes']} bytes; "
                  "'cache clear --quarantined' removes them)")
        for kind, bucket in sorted(info["by_kind"].items()):
            print(f"  {kind:<9} {bucket['count']:>6} entries "
                  f"{bucket['bytes']:>12} bytes")
    elif args.cache_command == "ls":
        print(f"{'kind':<9} {'workload':<22} {'thr':>5} {'opt':>4} "
              f"{'bytes':>10}  key")
        for entry in store.entries():
            fp = entry.fingerprint
            print(f"{entry.kind:<9} {fp.get('workload', '?'):<22} "
                  f"{fp.get('n_threads', '?'):>5} "
                  f"{fp.get('opt_level', '?'):>4} "
                  f"{entry.size:>10}  {entry.key[:12]}")
    elif args.cache_command == "clear":
        if args.quarantined:
            removed = store.clear_quarantined()
            print(f"removed {removed} quarantined entries")
        else:
            removed = store.clear(kind=args.kind)
            what = args.kind or "all kinds"
            print(f"removed {removed} artifacts ({what})")
    return 0


def _cmd_index(args) -> int:
    import json as _json

    from .index import (ResultIndex, history_regression,
                        metric_direction, parse_counter_expr)

    store = ArtifactStore(args.cache_dir or default_cache_dir())
    index: ResultIndex = store.index
    cmd = args.index_command

    if cmd == "rebuild":
        stats = index.rebuild()
        if args.json:
            print(_json.dumps(dict(stats, **index.stats()),
                              sort_keys=True))
            return 0
        print(f"indexed {stats['indexed']} artifacts from {store.root}")
        if stats["skipped_corrupt"]:
            print(f"  skipped {stats['skipped_corrupt']} corrupt "
                  "entries (quarantined)")
        if stats["skipped_unknown"]:
            print(f"  skipped {stats['skipped_unknown']} entries of "
                  "unknown kinds")
        for table, count in sorted(index.stats().items()):
            print(f"  {table:<13} {count:>6} rows")
        return 0

    if cmd == "query":
        counter = None
        if args.counter is not None:
            try:
                counter = parse_counter_expr(args.counter)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        rows = index.query(
            workload=args.workload, opt_level=args.opt_level,
            warp_size=args.warp_size,
            min_efficiency=args.min_efficiency,
            max_efficiency=args.max_efficiency,
            hotspot=args.hotspot, counter=counter, limit=args.limit,
        )
        if args.json:
            for row in rows:
                print(_json.dumps(row, sort_keys=True))
            return 0
        print(f"{'workload':<22} {'warp':>5} {'opt':>4} {'thr':>5} "
              f"{'seed':>5} {'eff':>7} {'issues':>9}  key")
        for row in rows:
            print(f"{row['workload']:<22} {row['warp_size']:>5} "
                  f"{row['opt_level']:>4} {row['n_threads']:>5} "
                  f"{row['seed']:>5} {row['simt_efficiency']:>7.1%} "
                  f"{row['issues']:>9}  {row['key'][:12]}")
        print(f"{len(rows)} run(s)")
        return 0

    if cmd == "diff":
        try:
            result = index.diff(args.key_a, args.key_b)
        except KeyError as exc:
            print(f"error: no indexed run matches key {exc.args[0]!r} "
                  "(see 'threadfuser index query')", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(_json.dumps(result, sort_keys=True))
            return 0
        print(f"a: {result['a']['key'][:12]}  "
              f"({result['a']['workload']})")
        print(f"b: {result['b']['key'][:12]}  "
              f"({result['b']['workload']})")
        for section in ("fields", "hotspots", "counters"):
            entries = result[section]
            if not entries:
                continue
            print(f"{section}:")
            for name in sorted(entries):
                print(f"  {name:<40} {entries[name]['a']} -> "
                      f"{entries[name]['b']}")
        if not (result["fields"] or result["hotspots"]
                or result["counters"]):
            print("no differences")
        return 0

    if cmd == "history":
        if bool(args.metric) == bool(args.workload):
            print("error: pass exactly one of --metric or --workload",
                  file=sys.stderr)
            return 2
        if args.workload:
            return _workload_history(index, args)
        points = index.history(args.metric, label=args.label)
        if not points:
            known = index.metrics(label=args.label)
            print(f"error: no tracked points for metric "
                  f"{args.metric!r}"
                  + (f" (tracked: {', '.join(known[:8])}...)" if known
                     else " (ingest BENCH files first: "
                          "'threadfuser index ingest BENCH_replay.json')"),
                  file=sys.stderr)
            return 2
        verdict = history_regression(points, args.metric,
                                     args.max_regression)
        if args.json:
            print(_json.dumps({"metric": args.metric, "points": points,
                               "verdict": verdict}, sort_keys=True))
            return 1 if verdict and verdict["regressed"] else 0
        labels = {-1: "lower-is-better", 1: "higher-is-better",
                  0: "neutral"}
        print(f"{args.metric} ({labels[metric_direction(args.metric)]}):")
        peak = max(abs(p["value"]) for p in points) or 1.0
        for point in points:
            bar = "#" * max(1, int(abs(point["value"]) / peak * 40))
            print(f"  {point['run_id']:>4} {point['label']:<20} "
                  f"{point['value']:>12g}  {bar}")
        if verdict is not None:
            arrow = (f"{verdict['before']:g} -> {verdict['after']:g} "
                     f"({abs(verdict['delta_pct']):.1f}% "
                     f"{'worse' if verdict['delta_pct'] > 0 else 'better'})")
            if verdict["regressed"]:
                print(f"regression beyond "
                      f"{verdict['max_regression']:g}%: {arrow}")
                return 1
            print(f"no regression beyond "
                  f"{verdict['max_regression']:g}%: {arrow}")
        return 0

    # cmd == "ingest"
    results = []
    for path in args.files:
        try:
            results.append(index.ingest_bench(path, label=args.label))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(_json.dumps(results, sort_keys=True))
        return 0
    for result in results:
        state = ("already recorded" if result["deduplicated"]
                 else f"recorded as run {result['run_id']}")
        print(f"{result['label']}: {result['metrics']} metric(s), "
              f"{state}")
    return 0


def _workload_history(index, args) -> int:
    """``threadfuser index history --workload``: the per-workload pivot.

    Prints (or JSON-dumps) one trajectory per tracked
    ``workloads.<name>.*`` metric, each with its own regression
    verdict under ``--max-regression``; exits 1 when any metric
    regressed beyond the threshold, 2 when the workload is untracked.
    """
    import json as _json

    from .index import history_regression, metric_direction

    trajectories = index.workload_history(args.workload,
                                          label=args.label)
    if not trajectories:
        print(f"error: no tracked workloads.{args.workload}.* metrics"
              " (ingest BENCH files first: 'threadfuser index ingest"
              " BENCH_replay.json')", file=sys.stderr)
        return 2
    verdicts = {
        metric: history_regression(points, metric, args.max_regression)
        for metric, points in trajectories.items()
    }
    regressed = [metric for metric, verdict in verdicts.items()
                 if verdict and verdict["regressed"]]
    if args.json:
        print(_json.dumps({"workload": args.workload,
                           "metrics": trajectories,
                           "verdicts": verdicts}, sort_keys=True))
        return 1 if regressed else 0
    labels = {-1: "lower-is-better", 1: "higher-is-better", 0: "neutral"}
    print(f"workloads.{args.workload}.* "
          f"({len(trajectories)} tracked metric(s)):")
    for metric in sorted(trajectories):
        points = trajectories[metric]
        direction = labels[metric_direction(metric)]
        trail = " -> ".join(f"{p['value']:g}" for p in points)
        print(f"  {metric:<44} ({direction})")
        print(f"    {trail}")
        verdict = verdicts[metric]
        if verdict is not None:
            word = ("regression" if verdict["regressed"]
                    else "no regression")
            print(f"    {word} beyond {verdict['max_regression']:g}%: "
                  f"{verdict['before']:g} -> {verdict['after']:g} "
                  f"({abs(verdict['delta_pct']):.1f}% "
                  f"{'worse' if verdict['delta_pct'] > 0 else 'better'})")
    if regressed:
        print(f"{len(regressed)} metric(s) regressed: "
              + ", ".join(sorted(regressed)))
        return 1
    return 0


def _cmd_pool(args) -> int:
    from . import pool as pool_mod

    info = pool_mod.probe_info(jobs=args.jobs,
                               probe=not args.no_probe)
    print(f"start method:   {info['start_method']}")
    print(f"shared memory:  "
          f"{'available' if info['shm_supported'] else 'unavailable'}")
    if "ping_pids" in info:
        pids = ", ".join(str(pid) for pid in info["ping_pids"])
        print(f"workers:        {info.get('workers', 0)} alive "
              f"(pids {pids})")
    print(f"spawned:        {info.get('spawned', 0)} total, "
          f"{info.get('respawns', 0)} respawns")
    print(f"batches:        {info.get('batches', 0)} total, "
          f"{info.get('reused_batches', 0)} on reused workers")
    print(f"tasks:          {info.get('tasks', 0)} completed, "
          f"{info.get('task_failures', 0)} failed, "
          f"{info.get('worker_failures', 0)} workers lost")
    attaches = info.get("attaches", 0)
    attach_s = info.get("attach_s", 0.0)
    mean_ms = attach_s / attaches * 1e3 if attaches else 0.0
    print(f"arena attaches: {attaches}  "
          f"(mean {mean_ms:.2f} ms)")
    print(f"arenas:         {info.get('arenas', 0)} open "
          f"({info.get('arena_bytes', 0)} bytes), "
          f"{info.get('leaked_segments', 0)} leak-deferred")
    return 0


def _cmd_serve(args) -> int:
    from . import serve as serve_mod

    session = _session_from_args(args)
    server = serve_mod.AnalysisServer(
        session=session, host=args.host, port=args.port,
        queue_depth=args.queue_depth or serve_mod.DEFAULT_QUEUE_DEPTH,
    )
    try:
        return serve_mod.run_server(server)
    finally:
        session.close()


_COMMANDS = {
    "list": _cmd_list,
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "speedup": _cmd_speedup,
    "tracegen": _cmd_tracegen,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
    "index": _cmd_index,
    "pool": _cmd_pool,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as exc:
        if args.command != "list" and exc.args and isinstance(
                exc.args[0], str):
            print(f"error: unknown workload {exc.args[0]!r} "
                  "(see 'threadfuser list')", file=sys.stderr)
            return 2
        raise
    except BrokenPipeError:
        # Output was piped into a pager/head that exited early.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except ReproError as exc:
        # Typed pipeline failure (corrupt artifact, exhausted retries,
        # ...): report the site and the recovery hint instead of a
        # traceback, with a distinct exit code for scripting.
        site = f" [{exc.site}]" if exc.site else ""
        print(f"error{site}: {exc}", file=sys.stderr)
        if exc.hint:
            print(f"hint: {exc.hint}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
