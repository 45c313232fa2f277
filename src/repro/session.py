"""Staged analysis sessions: one shared path from workload to report.

An :class:`AnalysisSession` decomposes the end-to-end flow into explicit,
individually cacheable stages::

    build -> transform(opt_level) -> trace -> prepare -> replay -> report

* **build** instantiates a catalog workload (program + launch plan);
* **transform** compiles it at a gcc-like optimization level (O0-O3);
* **trace** runs the machine under the tracer (the only stage that
  executes code -- skipped entirely on a cache hit);
* **prepare** builds the DCFG/IPDOM tables (reusable across warp sizes);
* **replay** runs the lock-step SIMT replay, optionally fanned out over
  worker processes (the session's ``jobs`` knob);
* **report** is the cached end product, addressed by the full fingerprint
  (workload, thread count, seed, opt level, machine/tracer config,
  analyzer config, schema version).

Stage outputs are memoized in-process (the :data:`MEMO_ENTRIES` most
recently used per stage) and, when the session has a cache directory,
persisted through :class:`repro.artifacts.ArtifactStore` so
sweeps and repeated CLI runs never re-execute identical work.  Of those
writes only the report (and stored telemetry) reaches the store's sqlite
result index (:mod:`repro.index`).  All entry
points -- :mod:`repro.pipeline`, the CLI, the benchmark harness, the
examples -- route through this class.

The session is the top-level instrumentation point of :mod:`repro.obs`:
give it a :class:`~repro.obs.Recorder` and every stage is timed as a
hierarchical span (``report > trace > build`` ...), cache and memo hits
are counted per stage, and :meth:`AnalysisSession.telemetry` snapshots
the whole run -- including artifact-store gauges -- as a
:class:`~repro.obs.Telemetry` document exportable as ``telemetry.json``.
By default the shared no-op recorder is used and every probe costs one
attribute load plus a no-op call.
"""

from __future__ import annotations

import dataclasses
import io as _stdio
import weakref
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import faults
from . import pool as pool_mod
from .artifacts import (
    KIND_DCFGS,
    KIND_REPORT,
    KIND_TELEMETRY,
    KIND_TRACES,
    ArtifactStore,
    CacheStats,
    fingerprint_key,
    serialize_traces,
)
from .core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from .core.dcfg import DCFGSet
from .core.report import AnalysisReport
from .obs import NULL_RECORDER, Telemetry
from .optlevels import OPT_LEVELS, apply_opt_level
from .program.ir import Program
from .tracer import io as trace_io
from .tracer.events import TraceSet
from .workloads import runner
from .workloads.base import WorkloadInstance, get_workload

#: The builder's as-written shape; `transform` is the identity here.
OPT_BASE = "O1"

#: Retry schedule of a serial trace that fails transiently.
_RETRY = faults.RetryPolicy()

#: Entries each in-process stage memo keeps; the least recently used
#: goes first.  Enough for a sweep (one trace set, one DCFG set, one
#: report per width) and for an 8-program ``trace_many``.
MEMO_ENTRIES = 8


class _Memo:
    """One stage's in-process memo, bounded to :data:`MEMO_ENTRIES`."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > MEMO_ENTRIES:
            self._entries.popitem(last=False)


class AnalysisSession:
    """A staged, cached pipeline over the workload catalog.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk artifact store.  ``None`` disables disk
        caching (stages are still memoized in-process).
    jobs:
        Worker processes for the parallel stages (warp replay and
        concurrent trace generation).  ``jobs=1`` is bit-identical to
        the serial pipeline.
    recorder:
        An optional :class:`repro.obs.Recorder`.  Defaults to the shared
        no-op recorder, which keeps instrumentation overhead negligible.

    For ``jobs>1`` the parallel stages run on the persistent
    :mod:`repro.pool` workers -- spawned once, reused across
    ``trace_many``/replay/sweep calls, traces shared zero-copy through
    shared-memory column arenas.  Results are bit-identical to serial.

    Sessions are context managers: ``close()`` (or leaving the ``with``
    block) releases every shared-memory arena attached to this
    session's traces.  The persistent workers themselves outlive the
    session by design (that is the point of the substrate) and are torn
    down at interpreter exit, or explicitly via
    :func:`repro.pool.shutdown`.
    """

    def __init__(self, cache_dir: Optional[str] = None, jobs: int = 1,
                 recorder=None) -> None:
        self.store = (ArtifactStore(cache_dir) if cache_dir is not None
                      else None)
        self.jobs = max(1, int(jobs))
        self.obs = recorder if recorder is not None else NULL_RECORDER
        #: Machine executions performed by this session (test surface:
        #: a warm cache keeps this at zero).
        self.executions = 0
        #: Recovery bookkeeping: serial retries taken, whole-pool
        #: fallbacks, and workers lost to crashes/timeouts.  Exported
        #: as ``faults.*`` gauges by :meth:`telemetry`.
        self.fault_stats: Dict[str, int] = {
            "retries": 0, "pool_fallbacks": 0, "worker_failures": 0,
        }
        # Stage memos (keyed like the store), each bounded to the
        # MEMO_ENTRIES most recently used entries, so a long-lived
        # session -- a server's, a benchmark's -- holds a constant
        # number of programs, trace sets, DCFGs and reports.
        self._instances = _Memo()
        self._programs = _Memo()
        self._traces = _Memo()
        self._dcfgs = _Memo()
        self._reports = _Memo()
        #: Every trace set this session handed out, weakly: ``close``
        #: releases the pool arenas of those still alive (memo-evicted
        #: ones included); collected ones close their own.
        self._handed_out: "weakref.WeakSet[TraceSet]" = weakref.WeakSet()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the shared-memory arenas of this session's traces.

        Idempotent.  Workers detach, segments are unlinked, and
        :func:`repro.pool.live_arenas` drops the entries -- the
        zero-leak guarantee the tests assert.  The persistent workers
        stay up for the next session (shut down at interpreter exit).
        """
        for traces in list(self._handed_out):
            pool_mod.release_arena(traces)

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- cache surface ---------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/bytes counters of the underlying store."""
        return self.store.stats if self.store else CacheStats()

    # -- observability surface -------------------------------------------

    def telemetry(self) -> Telemetry:
        """Snapshot this session's recorder as a :class:`Telemetry`.

        Beyond the recorder's own spans and counters, the snapshot
        carries the session-level counter ``session.executions``
        (machine runs this session performed) and the artifact-store
        gauges ``cache.hits`` / ``cache.misses`` / ``cache.puts`` /
        ``cache.bytes_read`` / ``cache.bytes_written``.  Cache activity
        lives in *gauges* because it depends on what was already on
        disk; the ``counters`` section stays bit-identical between
        ``jobs=1`` and ``jobs=N`` runs over the same inputs.

        With the default no-op recorder this returns an empty document.
        """
        snapshot = self.obs.telemetry()
        if not self.obs.enabled:
            return snapshot
        snapshot.counters["session.executions"] = self.executions
        stats = self.cache_stats
        snapshot.gauges["cache.hits"] = stats.hits
        snapshot.gauges["cache.misses"] = stats.misses
        snapshot.gauges["cache.puts"] = stats.puts
        snapshot.gauges["cache.bytes_read"] = stats.bytes_read
        snapshot.gauges["cache.bytes_written"] = stats.bytes_written
        snapshot.gauges["cache.corrupt"] = stats.corrupt
        # Recovery activity lives in *gauges* for the same reason the
        # cache stats do: it depends on the environment (what crashed,
        # what rotted on disk), while the counters section must stay
        # bit-identical across jobs=1 and jobs=N runs.
        for name, value in self.fault_stats.items():
            snapshot.gauges[f"faults.{name}"] = value
        plan = faults.active()
        if plan is not None:
            for site, fired in sorted(plan.injected.items()):
                snapshot.gauges[f"faults.injected.{site}"] = fired
        # Persistent-substrate activity (worker reuse, arena bytes,
        # attach latency) is environmental, so it rides in gauges too.
        if pool_mod.substrate_active():
            for name, value in sorted(pool_mod.stats_snapshot().items()):
                if isinstance(value, float):
                    value = round(value, 6)
                snapshot.gauges[f"pool.{name}"] = value
        snapshot.meta.setdefault("jobs", self.jobs)
        return snapshot

    def store_telemetry(self, telemetry: Telemetry,
                        fields: Dict) -> Optional[str]:
        """Persist ``telemetry`` as a JSON artifact in the store.

        ``fields`` is the fingerprint of the run the document describes
        (conventionally the report-stage fingerprint); the artifact is
        stored under the ``telemetry`` kind next to the report it
        profiles.  Returns the payload path, or ``None`` without a
        store.
        """
        if self.store is None:
            return None
        tele_fields = dict(fields, kind=KIND_TELEMETRY)
        self.store.put_bytes(
            KIND_TELEMETRY, tele_fields,
            telemetry.to_json().encode("utf-8") + b"\n",
        )
        return self.store.payload_path(KIND_TELEMETRY, tele_fields)

    # -- stage: build ----------------------------------------------------

    def build(self, workload: str, n_threads: Optional[int] = None,
              seed: int = 7) -> WorkloadInstance:
        """Instantiate a catalog workload (program + launch plan)."""
        entry = get_workload(workload)
        resolved = n_threads or entry.default_threads
        key = (workload, resolved, seed)
        instance = self._instances.get(key)
        if instance is None:
            with self.obs.span("build"):
                instance = entry.instantiate(resolved, seed=seed)
            self._instances.put(key, instance)
        return instance

    # -- stage: transform ------------------------------------------------

    def transform(self, program: Program,
                  opt_level: Optional[str]) -> Program:
        """Compile ``program`` at ``opt_level`` (O1/None: as written)."""
        if opt_level in (None, OPT_BASE):
            return program
        if opt_level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {opt_level!r}")
        with self.obs.span("transform"):
            return apply_opt_level(program, opt_level)

    def _program(self, workload: str, n_threads: Optional[int], seed: int,
                 opt_level: Optional[str]) -> Program:
        instance = self.build(workload, n_threads, seed)
        if opt_level in (None, OPT_BASE):
            return instance.program
        resolved = n_threads or get_workload(workload).default_threads
        key = (workload, resolved, seed, opt_level)
        program = self._programs.get(key)
        if program is None:
            program = self.transform(instance.program, opt_level)
            self._programs.put(key, program)
        return program

    # -- fingerprints ----------------------------------------------------

    def trace_fields(self, workload: str, n_threads: Optional[int] = None,
                     seed: int = 7, opt_level: str = OPT_BASE,
                     machine_overrides: Optional[Dict] = None) -> Dict:
        """The artifact fingerprint of one trace-stage output.

        The execution engine never enters the fingerprint: the compiled
        engine and the reference interpreter are bit-identical (enforced
        by the engine-parity tests), so an ``engine`` machine override
        shares the cache entry of the default engine.
        """
        instance = self.build(workload, n_threads, seed)
        resolved = n_threads or get_workload(workload).default_threads
        machine_kwargs = dict(instance.machine_kwargs)
        machine_kwargs.update(machine_overrides or {})
        machine_kwargs.pop("engine", None)
        return {
            "kind": KIND_TRACES,
            "trace_format": trace_io.FORMAT_VERSION,
            "workload": workload,
            "n_threads": resolved,
            "seed": seed,
            "opt_level": opt_level or OPT_BASE,
            "machine": machine_kwargs,
            "roots": list(instance.roots),
            "exclude": list(instance.exclude),
        }

    def report_fields(self, workload: str, n_threads: Optional[int] = None,
                      seed: int = 7, opt_level: str = OPT_BASE,
                      config: Optional[AnalyzerConfig] = None,
                      machine_overrides: Optional[Dict] = None) -> Dict:
        """The artifact fingerprint of one report-stage output.

        The trace fingerprint (see :meth:`trace_fields`) extended with
        the analyzer configuration: the full identity of an
        :meth:`analyze` result.  ``config`` defaults to
        :class:`AnalyzerConfig`'s defaults, matching :meth:`analyze`.
        This is also the job identity of the serving layer
        (:mod:`repro.serve`): two requests with equal report fields
        are the same job.
        """
        config = config or AnalyzerConfig()
        trace_fields = self.trace_fields(
            workload, n_threads, seed, opt_level, machine_overrides
        )
        return dict(
            trace_fields, kind=KIND_REPORT, analyzer=config.fingerprint()
        )

    # -- stage: trace ----------------------------------------------------

    def trace(self, workload: str, n_threads: Optional[int] = None,
              seed: int = 7, opt_level: str = OPT_BASE,
              **machine_overrides) -> TraceSet:
        """Collect (or load) the workload's logical-thread traces."""
        fields = self.trace_fields(
            workload, n_threads, seed, opt_level, machine_overrides
        )
        key = fingerprint_key(fields)
        traces = self._traces.get(key)
        if traces is not None:
            self.obs.count("trace.memo_hits")
            return traces
        with self.obs.span("trace"):
            program = self._program(workload, n_threads, seed, opt_level)
            if self.store is not None:
                traces = self.store.get_traces(fields, program=program)
                if traces is not None:
                    self.obs.count("trace.cache_hits")
                    self._keep_traces(key, traces)
                    return traces
            instance = self.build(workload, n_threads, seed)
            machine_kwargs = dict(instance.machine_kwargs)
            machine_kwargs.update(machine_overrides)
            traces, machine = runner.execute_traced(
                program,
                instance.spawns,
                instance.roots,
                setup=instance.setup,
                exclude=instance.exclude,
                workload=instance.name,
                machine_kwargs=machine_kwargs,
            )
            self.executions += 1
            self._record_trace_counters(traces, machine)
            if self.store is not None:
                self.store.put_traces(fields, traces)
            self._keep_traces(key, traces)
        return traces

    def _keep_traces(self, key: str, traces: TraceSet) -> None:
        self._traces.put(key, traces)
        self._handed_out.add(traces)

    def _record_trace_counters(self, traces: TraceSet, machine=None,
                               machine_counts: Optional[Dict] = None
                               ) -> None:
        """Export one machine execution's totals into the recorder.

        ``trace.instructions`` counts the traced dynamic instructions
        (per-thread, from the trace set); ``machine.instructions`` the
        machine's full dynamic instruction count including untraced
        code; ``machine.mem_events`` the per-touch load/store events
        (see :class:`repro.machine.machine.Machine`).  When the
        execution ran in a pool worker the live machine never
        crosses back, so the worker ships its counts as the plain dict
        ``machine_counts`` instead (see :func:`_machine_counts`) --
        the exported counters are identical either way.
        """
        obs = self.obs
        if not obs.enabled:
            return
        obs.count("trace.executions")
        obs.count("trace.instructions", traces.total_instructions)
        obs.count("trace.skipped_instructions", traces.total_skipped)
        if machine is not None:
            machine_counts = _machine_counts(machine)
        if machine_counts:
            obs.count("machine.instructions", machine_counts["instructions"])
            obs.count("machine.mem_events", machine_counts["mem_events"])
            obs.count("machine.threads", machine_counts["threads"])
            engine = machine_counts.get("engine")
            if engine:
                # Engine shape rides in gauges: the counters section must
                # stay identical across engines (they are bit-identical),
                # while the gauges describe *how* this run executed.
                obs.gauge("engine.compiled", engine["compiled"])
                obs.gauge("engine.compiled_blocks", engine["blocks"])
                obs.gauge("engine.compiled_handlers", engine["handlers"])

    def trace_raw(self, program: Program,
                  spawns: Iterable[Tuple[str, Sequence, Optional[Sequence]]],
                  roots: Iterable[str],
                  setup=None, exclude: Iterable[str] = (),
                  workload: str = "", **machine_kwargs) -> TraceSet:
        """Trace an arbitrary (non-catalog) program.

        Raw programs carry host callables that cannot be fingerprinted,
        so this stage never touches the artifact store.
        """
        with self.obs.span("trace"):
            traces, machine = runner.execute_traced(
                program, spawns, roots, setup=setup, exclude=exclude,
                workload=workload, machine_kwargs=machine_kwargs,
            )
            self.executions += 1
            self._record_trace_counters(traces, machine)
        self._handed_out.add(traces)
        return traces

    def trace_many(self, workloads: Iterable[str],
                   n_threads: Optional[int] = None, seed: int = 7,
                   opt_level: str = OPT_BASE,
                   jobs: Optional[int] = None) -> Dict[str, TraceSet]:
        """Trace several workloads, generating cold traces concurrently.

        Cache hits are served as usual; the remaining cold workloads run
        on the persistent worker pool (``jobs`` defaults to the
        session's knob).  The
        result maps workload name to :class:`TraceSet`.

        Failure handling: pool failures are *classified* (see
        :func:`repro.faults.is_retryable`).  A dead or timed-out worker,
        a broken pool, or a corrupted result stream sends the affected
        items to the serial path -- bit-identical to ``jobs=1`` -- with
        per-item retry and exponential backoff.  A worker exception
        that is a *bug* (a ``ValueError`` from workload code, say) is
        never silently retried: it re-raises immediately with the
        worker's original traceback chained in.
        """
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        names = list(workloads)
        out: Dict[str, TraceSet] = {}
        cold: List[str] = []
        for name in names:
            fields = self.trace_fields(name, n_threads, seed, opt_level)
            traces = self._traces.get(fingerprint_key(fields))
            if traces is not None:
                self.obs.count("trace.memo_hits")
                out[name] = traces
                continue
            if self.store is not None and self.store.has(KIND_TRACES, fields):
                out[name] = self._trace_with_retry(
                    name, n_threads=n_threads, seed=seed, opt_level=opt_level
                )
                continue
            cold.append(name)
        payloads: Dict[str, Tuple[bytes, Dict]] = {}
        pool_jobs = min(jobs, len(cold))
        if pool_jobs > 1:
            payloads = self._pool_trace(cold, n_threads, seed, opt_level,
                                        pool_jobs)
        for name in cold:
            payload = payloads.get(name)
            if payload is None:
                out[name] = self._trace_with_retry(
                    name, n_threads=n_threads, seed=seed, opt_level=opt_level
                )
                continue
            data, counts = payload
            fields = self.trace_fields(name, n_threads, seed, opt_level)
            program = self._program(name, n_threads, seed, opt_level)
            try:
                traces = trace_io.load_traces(_stdio.BytesIO(data),
                                              program=program)
            except trace_io.TraceCorruptError:
                # The worker's result stream was corrupted in transit;
                # regenerate serially (bit-identical by construction).
                self.fault_stats["worker_failures"] += 1
                out[name] = self._trace_with_retry(
                    name, n_threads=n_threads, seed=seed, opt_level=opt_level
                )
                continue
            self.executions += 1
            self._record_trace_counters(traces, machine_counts=counts)
            if self.store is not None:
                self.store.put_bytes(KIND_TRACES, fields, data)
            self._keep_traces(fingerprint_key(fields), traces)
            out[name] = traces
        return out

    def _pool_trace(self, cold: List[str], n_threads: Optional[int],
                    seed: int, opt_level: str,
                    pool_jobs: int) -> Dict[str, Tuple[bytes, Dict]]:
        """Run the cold workloads on the persistent shared pool.

        Returns serialized results for the items whose workers
        succeeded.  Items whose workers failed *retryably* (killed,
        timeout, transient ``OSError``) are simply absent, and a pool
        that is unavailable as a whole counts one pool fallback -- the
        caller regenerates the missing items serially.  A non-retryable
        worker exception re-raises with its remote traceback attached
        as the ``__cause__``.  The task callable is read from this
        module's ``_trace_worker`` attribute at dispatch time and
        shipped by reference, so monkeypatched replacements are
        honored.
        """
        tasks = [(_trace_worker, (name, n_threads, seed, opt_level), name)
                 for name in cold]
        try:
            outcomes = pool_mod.shared_pool().run_tasks(tasks, jobs=pool_jobs)
        except Exception as exc:
            if not faults.is_retryable(exc):
                raise
            self.fault_stats["pool_fallbacks"] += 1
            return {}
        results: Dict[str, Tuple[bytes, Dict]] = {}
        for value in outcomes:
            if value is None:
                self.fault_stats["worker_failures"] += 1
                continue
            rname, data, counts = value
            results[rname] = (data, counts)
        return results

    def _trace_with_retry(self, name: str, n_threads: Optional[int],
                          seed: int, opt_level: str) -> TraceSet:
        """Serial :meth:`trace` under the module's retry policy.

        This is the guaranteed fallback of every parallel path: the
        serial pipeline *is* the ``jobs=1`` pipeline, so a recovered
        run is bit-identical to a fault-free one.  Only retryable
        failures are retried; bugs propagate on the first attempt.
        """

        def on_retry(_attempt: int, _exc) -> None:
            self.fault_stats["retries"] += 1

        return faults.call_with_retry(
            lambda: self.trace(name, n_threads=n_threads, seed=seed,
                               opt_level=opt_level),
            policy=_RETRY,
            label=f"trace {name!r}",
            on_retry=on_retry,
        )

    # -- stage: prepare --------------------------------------------------

    def prepare(self, traces: TraceSet,
                fields: Optional[Dict] = None) -> DCFGSet:
        """Build (or load) the DCFG/IPDOM tables for ``traces``.

        ``fields`` is the trace-stage fingerprint (see
        :meth:`trace_fields`); without it the tables are rebuilt
        uncached.
        """
        if fields is None:
            with self.obs.span("prepare"):
                return ThreadFuserAnalyzer().prepare(traces)
        dcfg_fields = dict(fields, kind=KIND_DCFGS)
        key = fingerprint_key(dcfg_fields)
        dcfgs = self._dcfgs.get(key)
        if dcfgs is not None:
            self.obs.count("prepare.memo_hits")
            return dcfgs
        with self.obs.span("prepare"):
            if self.store is not None:
                dcfgs = self.store.get_object(KIND_DCFGS, dcfg_fields)
                if dcfgs is not None:
                    self.obs.count("prepare.cache_hits")
            if dcfgs is None:
                dcfgs = ThreadFuserAnalyzer().prepare(traces)
                if self.store is not None:
                    self.store.put_object(KIND_DCFGS, dcfg_fields, dcfgs)
            self._dcfgs.put(key, dcfgs)
        return dcfgs

    # -- stage: replay ---------------------------------------------------

    def replay(self, traces: TraceSet,
               config: Optional[AnalyzerConfig] = None,
               dcfgs: Optional[DCFGSet] = None,
               visitor_factory=None,
               jobs: Optional[int] = None) -> AnalysisReport:
        """Lock-step SIMT replay of ``traces`` into a report.

        The session's recorder is handed to the analyzer, so the
        analyzer's warp-formation/replay spans and replay counters nest
        under this stage's ``replay`` span.
        """
        analyzer = ThreadFuserAnalyzer(
            config, jobs=self.jobs if jobs is None else jobs,
            recorder=self.obs,
        )
        with self.obs.span("replay"):
            return analyzer.analyze(
                traces, dcfgs=dcfgs, visitor_factory=visitor_factory
            )

    # -- stage: report (the full chain) ----------------------------------

    def analyze(self, workload: str, n_threads: Optional[int] = None,
                seed: int = 7, opt_level: str = OPT_BASE,
                config: Optional[AnalyzerConfig] = None,
                **machine_overrides) -> AnalysisReport:
        """Full pipeline with end-to-end caching.

        On a warm cache the stored report is returned directly -- no
        machine execution, no trace loading, no replay.
        """
        config = config or AnalyzerConfig()
        with self.obs.span("report"):
            trace_fields = self.trace_fields(
                workload, n_threads, seed, opt_level, machine_overrides
            )
            report_fields = dict(
                trace_fields, kind=KIND_REPORT,
                analyzer=config.fingerprint()
            )
            key = fingerprint_key(report_fields)
            report = self._reports.get(key)
            if report is not None:
                self.obs.count("report.memo_hits")
                return report
            if self.store is not None:
                report = self.store.get_object(KIND_REPORT, report_fields)
                if report is not None:
                    self.obs.count("report.cache_hits")
                    self._reports.put(key, report)
                    return report
            traces = self.trace(
                workload, n_threads=n_threads, seed=seed,
                opt_level=opt_level, **machine_overrides
            )
            dcfgs = self.prepare(traces, fields=trace_fields)
            report = self.replay(traces, config=config, dcfgs=dcfgs)
            if self.store is not None:
                self.store.put_object(KIND_REPORT, report_fields, report)
            self._reports.put(key, report)
        return report

    def sweep(self, workload: str, warp_sizes=(8, 16, 32),
              n_threads: Optional[int] = None, seed: int = 7,
              opt_level: str = OPT_BASE,
              config: Optional[AnalyzerConfig] = None,
              **machine_overrides) -> Dict[int, AnalysisReport]:
        """Per-width reports sharing one trace and one DCFG/IPDOM build."""
        base = config or AnalyzerConfig()
        out: Dict[int, AnalysisReport] = {}
        for warp_size in warp_sizes:
            sized = dataclasses.replace(base, warp_size=warp_size)
            out[warp_size] = self.analyze(
                workload, n_threads=n_threads, seed=seed,
                opt_level=opt_level, config=sized, **machine_overrides
            )
        return out


def _machine_counts(machine) -> Dict[str, int]:
    """The machine-level telemetry counts of one finished execution.

    A plain dict so pool workers can ship the counts back without
    pickling the machine itself; the parent records them through
    :meth:`AnalysisSession._record_trace_counters` exactly as if the
    execution had run in-process.
    """
    return {
        "instructions": machine.total_instructions,
        "mem_events": machine.mem_events,
        "threads": len(machine.threads),
        "engine": machine.engine_stats(),
    }


def _trace_worker(spec: tuple) -> Tuple[str, bytes, Dict[str, int]]:
    """Pool worker: trace one workload, return serialized traces.

    Results cross the process boundary in the trace-file wire format
    (the packed columns of format v3, not pickles of live objects), so
    the bytes the parent stores are identical to what a serial run
    would have written.  The machine's
    telemetry counts ride along so parallel trace generation exports
    the same counters as a serial run.
    """
    name, n_threads, seed, opt_level = spec
    faults.check("pool.worker", name)
    entry = get_workload(name)
    instance = entry.instantiate(n_threads or entry.default_threads,
                                 seed=seed)
    program = instance.program
    if opt_level not in (None, OPT_BASE):
        program = apply_opt_level(program, opt_level)
    traces, machine = runner.execute_traced(
        program,
        instance.spawns,
        instance.roots,
        setup=instance.setup,
        exclude=instance.exclude,
        workload=instance.name,
        machine_kwargs=dict(instance.machine_kwargs),
    )
    return name, serialize_traces(traces), _machine_counts(machine)


__all__ = ["MEMO_ENTRIES", "OPT_BASE", "AnalysisSession"]
