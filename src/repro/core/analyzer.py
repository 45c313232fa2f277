"""The ThreadFuser analyzer facade.

Wires the pipeline of paper Fig. 3b together: parse traces -> build
per-function DCFGs -> IPDOM analysis -> warp formation -> lock-step SIMT
stack replay -> reports.

Warp replays are independent, so :meth:`ThreadFuserAnalyzer.analyze` can
fan them out over the persistent worker pool (the ``jobs`` knob).
Per-warp metrics are always merged in warp-index order, so ``jobs=N`` is
bit-identical to the serial ``jobs=1`` path.

The analyzer is also an instrumentation point of :mod:`repro.obs`: give
it a :class:`~repro.obs.Recorder` and it times warp formation and replay
as spans and exports the replay counters (warps, issues, divergence /
reconvergence events, SIMT-stack depth high-water mark, lock
serialization).  Every exported counter is read from the warp-order
merged aggregate, never from the workers directly, so telemetry obeys
the same ``jobs=N == jobs=1`` determinism as the report itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from .. import pool as pool_mod
from ..obs import NULL_RECORDER, Telemetry
from ..tracer.events import TraceSet
from .dcfg import DCFGSet, build_dcfgs
from .ipdom import compute_all_ipdoms
from .metrics import AggregateMetrics
from .replay import VectorWarpReplayer
from .report import AnalysisReport
from .warp import form_warps


@dataclass
class AnalyzerConfig:
    """Tunable knobs of the analyzer.

    warp_size:
        SIMT width to emulate (the paper sweeps 8/16/32).
    batching:
        Warp-formation policy name (see :mod:`repro.core.warp`).
    emulate_locks:
        Serialize same-lock critical sections inside a warp (Fig. 9).
    lock_reconvergence:
        Where serialized threads reconverge: "unlock" (just past the
        critical section, the paper's choice) or "exit" (the enclosing
        reconvergence point -- the conservative alternative the paper
        defers to future work).

    The config carries only fields that determine the *result*; execution
    knobs like ``jobs`` live on :class:`ThreadFuserAnalyzer` so a config's
    :meth:`fingerprint` addresses cached reports independently of how the
    replay was scheduled.
    """

    warp_size: int = 32
    batching: str = "linear"
    emulate_locks: bool = False
    lock_reconvergence: str = "unlock"

    def fingerprint(self) -> Dict[str, Any]:
        """The artifact-store fingerprint fields of this config."""
        return dataclasses.asdict(self)


class ThreadFuserAnalyzer:
    """Analyzes a :class:`TraceSet` into an :class:`AnalysisReport`.

    Every warp is replayed by the production
    :class:`~repro.core.replay.VectorWarpReplayer`, and a warp whose
    ordered lane-signature tuple matches an already-replayed warp reuses
    its metrics (a content-addressed memo over
    :attr:`ThreadTrace.signature`).

    ``jobs`` > 1 replays warps on the persistent :mod:`repro.pool`
    workers over a shared-memory column arena -- zero pool spawns and
    zero trace pickling on warm calls; ``jobs=1`` keeps the in-process
    serial loop.  When the pool is unavailable or fails retryably the
    run falls back to the bit-identical serial path and reports it via
    the ``pool.fallback`` gauge plus a one-time ``RuntimeWarning``
    (never silently).

    ``recorder`` is an optional :class:`repro.obs.Recorder`; by default
    the shared no-op recorder is used and instrumentation costs nothing
    beyond a no-op call per stage.  Memo hit counts and the span-consumed
    token fraction are exported as ``memo.*`` / ``replay.vector_*``
    telemetry *gauges*, never counters -- they legitimately differ
    between ``jobs=1`` and ``jobs=N`` (each shard memoizes only its own
    warps; memo hits skip replays) while counters must stay
    bit-identical.
    """

    def __init__(self, config: Optional[AnalyzerConfig] = None,
                 jobs: int = 1, recorder=None) -> None:
        self.config = config or AnalyzerConfig()
        self.jobs = max(1, int(jobs))
        self.obs = recorder if recorder is not None else NULL_RECORDER

    def telemetry(self) -> Telemetry:
        """Snapshot of this analyzer's recorder (empty when disabled)."""
        return self.obs.telemetry()

    def prepare(self, traces: TraceSet) -> DCFGSet:
        """Build the DCFGs and IPDOM tables (reusable across warp sizes)."""
        with self.obs.span("prepare"):
            dcfgs = build_dcfgs(traces, dedupe=True)
            compute_all_ipdoms(dcfgs)
            self.obs.count("prepare.functions", len(dcfgs.functions))
        return dcfgs

    def analyze(self, traces: TraceSet,
                dcfgs: Optional[DCFGSet] = None,
                visitor_factory=None) -> AnalysisReport:
        """Run the full pipeline on ``traces``.

        ``visitor_factory``, when given, is called once per warp with the
        warp index and must return a replay visitor (or None); the trace
        generator uses this to emit simulator traces during replay.
        Visitors accumulate state in-process and need every warp's
        callbacks (one per block issue, which span steps deliver too),
        so their presence forces fresh serial replays (no memo reuse)
        regardless of ``jobs``.
        """
        cfg = self.config
        if dcfgs is None:
            dcfgs = self.prepare(traces)
        with self.obs.span("form_warps"):
            warps = form_warps(traces, cfg.warp_size, cfg.batching)
        with self.obs.span("replay_warps"):
            outcome = None
            if self.jobs > 1 and visitor_factory is None and len(warps) > 1:
                outcome = pool_mod.replay_warps_shared(
                    traces, warps, dcfgs, cfg, self.jobs, obs=self.obs,
                )
                if outcome is None:
                    # The serial path below is bit-identical to jobs=1.
                    # Never silent: the degradation is visible as a
                    # gauge and a one-time warning.
                    self.obs.gauge("faults.replay_fallbacks", 1)
                    self.obs.gauge("pool.fallback", 1)
                    pool_mod.warn_once(
                        "replay-serial-fallback",
                        "parallel warp replay unavailable (no usable "
                        "worker pool); falling back to the bit-identical "
                        "serial path",
                    )
            if outcome is None:
                memo = {} if visitor_factory is None else None
                outcome = replay_warps(enumerate(warps), dcfgs, cfg, memo,
                                       visitor_factory=visitor_factory)
            results, lookups, hits, vector_tokens, total_tokens = outcome
            if visitor_factory is None:
                self.obs.gauge("memo.warp_lookups", lookups)
                self.obs.gauge("memo.warp_hits", hits)
            self.obs.gauge("replay.vector_tokens", vector_tokens)
            self.obs.gauge("replay.vector_total_tokens", total_tokens)
            self.obs.gauge(
                "replay.vector_token_fraction",
                vector_tokens / total_tokens if total_tokens else 0.0)
        aggregate = AggregateMetrics(cfg.warp_size)
        for _index, metrics, n_threads in results:
            aggregate.merge(metrics, n_threads=n_threads)
        self._record_replay_counters(aggregate)
        return AnalysisReport(
            workload=traces.workload,
            metrics=aggregate,
            traced_fraction=traces.traced_fraction(),
            skipped_by_reason=traces.skipped_by_reason(),
        )

    def _record_replay_counters(self, aggregate: AggregateMetrics) -> None:
        """Export the warp-order merged aggregate into the recorder.

        Reading from the aggregate (never the workers) keeps telemetry
        counters bit-identical between ``jobs=1`` and ``jobs=N``.
        """
        obs = self.obs
        if not obs.enabled:
            return
        obs.count("replay.warps", aggregate.n_warps)
        obs.count("replay.threads", aggregate.n_threads)
        obs.count("replay.issues", aggregate.issues)
        obs.count("replay.thread_instructions",
                  aggregate.thread_instructions)
        obs.count("replay.divergence_events",
                  sum(aggregate.divergence_events.values()))
        obs.count("replay.reconvergence_events",
                  aggregate.reconvergence_events)
        obs.count("replay.memory_transactions",
                  aggregate.total_transactions())
        obs.count("replay.lock_events", aggregate.locks.lock_events)
        obs.count("replay.lock_contended_events",
                  aggregate.locks.contended_events)
        obs.count("replay.lock_serialized_entries",
                  aggregate.locks.serialized_entries)
        obs.count("replay.lock_serialized_issues",
                  aggregate.locks.serialized_issues)
        obs.maximum("replay.stack_depth_hwm", aggregate.stack_depth_hwm)


def replay_warps(warps: Iterable[Tuple[int, list]], dcfgs: DCFGSet,
                 cfg: AnalyzerConfig, memo: Optional[dict] = None,
                 visitor_factory=None):
    """Replay ``(index, warp)`` pairs in order with the production replayer.

    ``memo`` maps a warp's :func:`_memo_key` to the metrics of an
    earlier replay; a warp whose key is present reuses a clone of them
    instead of replaying, and fresh replays are stored.  ``None``
    disables reuse.  Callers pass a fresh table per call, so the DCFGs
    and the config are the same for every entry.

    Returns ``(results, memo_lookups, memo_hits, vector_tokens,
    total_tokens)`` with results as ``(index, WarpMetrics, n_threads)``;
    the token pair counts only fresh replays (hits skip the replay).
    """
    results = []
    lookups = hits = vector_tokens = total_tokens = 0
    for index, warp in warps:
        key = None
        if memo is not None:
            key = _memo_key(warp)
            lookups += 1
            cached = memo.get(key)
            if cached is not None:
                hits += 1
                results.append((index, cached.clone(), len(warp)))
                continue
        replayer = VectorWarpReplayer(
            warp,
            dcfgs,
            warp_size=cfg.warp_size,
            emulate_locks=cfg.emulate_locks,
            visitor=visitor_factory(index) if visitor_factory else None,
            lock_reconvergence=cfg.lock_reconvergence,
        )
        metrics = replayer.run()
        vector_tokens += replayer.vector_tokens
        total_tokens += replayer.total_tokens
        if key is not None:
            memo[key] = metrics
        results.append((index, metrics, len(warp)))
    return results, lookups, hits, vector_tokens, total_tokens


def _memo_key(warp) -> tuple:
    """Content key of a warp: root plus the ordered lane signatures.

    Signatures are sha256 over each lane's packed columns, so two warps
    share a key exactly when their lanes' token streams are identical,
    lane for lane -- replaying either one produces the same
    :class:`WarpMetrics` (the replay is a pure function of the streams,
    the DCFGs, and the config, and the latter two are fixed per call).
    """
    return (warp[0].root, tuple(trace.signature for trace in warp))


def sweep_warp_sizes(traces: TraceSet, warp_sizes=(8, 16, 32),
                     batching: str = "linear",
                     emulate_locks: bool = False,
                     lock_reconvergence: str = "unlock",
                     config: Optional[AnalyzerConfig] = None,
                     jobs: int = 1):
    """SIMT efficiency across warp widths (the Fig. 1 sweep).

    Builds the DCFG/IPDOM tables once and replays per width; returns
    ``{warp_size: AnalysisReport}``.  A caller-supplied ``config`` is the
    base for every width (only ``warp_size`` is overridden, via a fresh
    copy per width -- the input config is never mutated); the individual
    keyword knobs are honored otherwise.
    """
    base = config or AnalyzerConfig(
        batching=batching, emulate_locks=emulate_locks,
        lock_reconvergence=lock_reconvergence,
    )
    dcfgs = ThreadFuserAnalyzer(base).prepare(traces)
    out = {}
    for warp_size in warp_sizes:
        sized = dataclasses.replace(base, warp_size=warp_size)
        out[warp_size] = ThreadFuserAnalyzer(sized, jobs=jobs).analyze(
            traces, dcfgs=dcfgs)
    return out


def analyze_traces(traces: TraceSet, warp_size: int = 32,
                   batching: str = "linear",
                   emulate_locks: bool = False,
                   lock_reconvergence: str = "unlock",
                   jobs: int = 1) -> AnalysisReport:
    """One-call convenience wrapper around :class:`ThreadFuserAnalyzer`."""
    config = AnalyzerConfig(
        warp_size=warp_size, batching=batching, emulate_locks=emulate_locks,
        lock_reconvergence=lock_reconvergence,
    )
    return ThreadFuserAnalyzer(config, jobs=jobs).analyze(traces)
