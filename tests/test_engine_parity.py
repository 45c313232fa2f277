"""Golden parity: the compiled engine is bit-identical to the interpreter.

The link-time compiled engine (:mod:`repro.machine.compiled`) must be an
*observationally invisible* optimization: for every workload family in
the catalog it has to produce exactly the same traces, metrics and
telemetry counters as the seed instruction-at-a-time interpreter, under
both serial and parallel replay.  This is the contract that lets the
artifact store share cache entries across engines (the engine is
excluded from trace fingerprints) and lets the whole test suite double
as compiled-engine coverage.

Compared per workload, engine pair, and ``jobs`` in (1, 2):

* every logical thread's token stream and skip counters;
* the trace set's untraced/skipped totals;
* the full :class:`AggregateMetrics` counter signature of the report;
* the telemetry **counters** (gauges are excluded by design -- they
  describe *how* a run executed, e.g. ``engine.compiled``, and are the
  one place the engines may differ).
"""

import pytest

from repro.obs import Recorder
from repro.session import AnalysisSession

#: One representative workload per catalog family (suite column of the
#: paper's Table 1): Micro, Rodinia 3.1, ParSec 3.0, DeathStarBench,
#: uSuite, Paropoly, Others.
FAMILY_WORKLOADS = [
    "vectoradd",       # Micro Benchmark
    "streamcluster",   # Rodinia 3.1
    "blackscholes",    # ParSec 3.0
    "dsb_uniqueid",    # DeathStarBench
    "memcached",       # uSuite
    "nbody",           # Paropoly
    "md5",             # Others
]

N_THREADS = 48
SEED = 7


def _metrics_signature(m):
    """Every counter of an AggregateMetrics as one comparable value."""
    return (
        m.warp_size,
        m.n_warps,
        m.n_threads,
        m.issues,
        m.thread_instructions,
        tuple(m.warp_efficiencies),
        m.stack_depth_hwm,
        m.reconvergence_events,
        tuple(sorted(
            (name, s.issues, s.thread_instructions, s.calls)
            for name, s in m.per_function.items()
        )),
        tuple(sorted(
            (name, seg.instructions, seg.accesses, seg.transactions)
            for name, seg in m.memory.items()
        )),
        (m.locks.lock_events, m.locks.contended_events,
         m.locks.serialized_threads, m.locks.serialized_issues,
         m.locks.serialized_entries),
        tuple(sorted(m.divergence_events.items())),
    )


def _run(workload, engine, jobs):
    """Trace + analyze one workload; return all observables."""
    session = AnalysisSession(cache_dir=None, jobs=jobs,
                              recorder=Recorder())
    traces = session.trace(workload, n_threads=N_THREADS, seed=SEED,
                           engine=engine)
    report = session.analyze(workload, n_threads=N_THREADS, seed=SEED,
                             engine=engine)
    tokens = [t.tokens for t in traces.threads]
    skipped = [dict(t.skipped) for t in traces.threads]
    counters = dict(session.telemetry().counters)
    return {
        "tokens": tokens,
        "skipped": skipped,
        "untraced_skipped": traces.untraced_skipped,
        "total_instructions": traces.total_instructions,
        "metrics": _metrics_signature(report.metrics),
        "skipped_by_reason": dict(report.skipped_by_reason),
        "counters": counters,
    }


@pytest.mark.parametrize("workload", FAMILY_WORKLOADS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_compiled_engine_matches_interpreter(workload, jobs):
    interp = _run(workload, "interp", jobs)
    compiled = _run(workload, "compiled", jobs)

    assert compiled["tokens"] == interp["tokens"]
    assert compiled["skipped"] == interp["skipped"]
    assert compiled["untraced_skipped"] == interp["untraced_skipped"]
    assert compiled["total_instructions"] == interp["total_instructions"]
    assert compiled["metrics"] == interp["metrics"]
    assert compiled["skipped_by_reason"] == interp["skipped_by_reason"]
    assert compiled["counters"] == interp["counters"]


def test_engine_gauges_reflect_engine():
    """The engine gauges are the only telemetry difference by design."""
    s_compiled = AnalysisSession(recorder=Recorder())
    s_interp = AnalysisSession(recorder=Recorder())
    s_compiled.trace("vectoradd", n_threads=8, seed=SEED, engine="compiled")
    s_interp.trace("vectoradd", n_threads=8, seed=SEED, engine="interp")
    g_compiled = s_compiled.telemetry().gauges
    g_interp = s_interp.telemetry().gauges
    assert g_compiled["engine.compiled"] == 1
    assert g_compiled["engine.compiled_blocks"] > 0
    assert g_compiled["engine.compiled_handlers"] > 0
    assert g_interp["engine.compiled"] == 0
    assert g_interp["engine.compiled_blocks"] == 0


def test_engine_excluded_from_trace_fingerprint():
    """Bit-identical engines share one artifact-cache entry."""
    session = AnalysisSession()
    a = session.trace_fields("vectoradd", 8, SEED,
                             machine_overrides={"engine": "interp"})
    b = session.trace_fields("vectoradd", 8, SEED,
                             machine_overrides={"engine": "compiled"})
    assert a == b
