"""The production replay path is observationally identical to the oracle.

For one workload per catalog family, traced under both execution
engines, the analyzer has to produce a byte-identical pickled report
and identical telemetry *counters* to the reference oracle (the tuple
replayer, serial, no memo -- ``util.oracle_analyze``) in every replay
mode:

* ``vector`` -- the production replayer as shipped (span steps,
  single-lane sweeps, per-block steps where spans do not pay);
* ``packed`` -- the production replayer held to its per-block step,
  the path that visitors and short spans take;
* ``tuple`` -- the oracle's replayer driven by the production pipeline
  (deduplicated DCFGs, warp memo, warp-order merge);

each with the warp memo on (``memo``) and off (``nomemo``: a visitor
factory that attaches no visitor, which replays every warp fresh and
serially, as the trace generator does).  Gauges are excluded by
design: ``memo.*`` hit rates legitimately differ between serial and
sharded replay, and the ``replay.vector_*`` utilization fractions vary
with sharding too, which is exactly why they are gauges.

The synthetic replicated-lane tests then pin down the memo mechanics
themselves: identical warps actually hit, hits clone rather than
alias, and the warp-trace generator replays with the memo disabled and
matches the oracle replayer's callbacks.
"""

import functools
import io
import pickle

import pytest

from repro.core import analyzer as analyzer_module
from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.core.replay import VectorWarpReplayer, WarpReplayer
from repro.obs import Recorder
from repro.tracegen import generate_kernel_trace, save_kernel_trace
from repro.tracer.events import TraceSet
from repro.workloads import get_workload, trace_instance

from util import oracle_analyze

#: One representative workload per catalog family (Table 1 suites).
FAMILY_WORKLOADS = [
    "vectoradd",       # Micro Benchmark
    "streamcluster",   # Rodinia 3.1
    "blackscholes",    # ParSec 3.0
    "dsb_uniqueid",    # DeathStarBench
    "memcached",       # uSuite (emulate_locks coverage)
    "nbody",           # Paropoly
    "md5",             # Others
]

N_THREADS = 48
WARP_SIZE = 16

ENGINES = ("compiled", "interp")

MODES = ("tuple", "packed", "vector")

#: (mode, memo, jobs).  Pool workers always run the shipped replayer
#: with their memo, so only that combination also runs at jobs=2.
COMBOS = [(mode, memo, 1) for mode in MODES for memo in (True, False)]
COMBOS.append(("vector", True, 2))


@functools.lru_cache(maxsize=None)
def _traces(name, engine="compiled"):
    traces, _ = trace_instance(get_workload(name).instantiate(N_THREADS),
                               engine=engine)
    return traces


def _config(name):
    return AnalyzerConfig(warp_size=WARP_SIZE,
                          emulate_locks=(name == "memcached"))


def _set_mode(monkeypatch, mode):
    if mode == "tuple":
        monkeypatch.setattr(analyzer_module, "VectorWarpReplayer",
                            WarpReplayer)
    elif mode == "packed":
        monkeypatch.setattr(VectorWarpReplayer, "_step_entry",
                            VectorWarpReplayer._step_block)


def _run(name, memo, jobs, engine="compiled"):
    recorder = Recorder()
    analyzer = ThreadFuserAnalyzer(_config(name), jobs=jobs,
                                   recorder=recorder)
    report = analyzer.analyze(
        _traces(name, engine),
        visitor_factory=None if memo else (lambda index: None))
    telemetry = recorder.telemetry()
    return pickle.dumps(report), dict(telemetry.counters), telemetry.gauges


@functools.lru_cache(maxsize=None)
def _reference(name, engine):
    """The oracle's observables: tuple replay, no memo, serial."""
    recorder = Recorder()
    report = oracle_analyze(_traces(name, engine), _config(name), recorder)
    return pickle.dumps(report), dict(recorder.telemetry().counters)


class TestMemoParityMatrix:
    @pytest.mark.parametrize("mode,memo,jobs", COMBOS,
                             ids=[f"{mode}-"
                                  f"{'memo' if m else 'nomemo'}-jobs{j}"
                                  for mode, m, j in COMBOS])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", FAMILY_WORKLOADS)
    def test_reports_and_counters_identical(self, monkeypatch, name,
                                            engine, mode, memo, jobs):
        reference, ref_counters = _reference(name, engine)
        _set_mode(monkeypatch, mode)
        report, counters, gauges = _run(name, memo, jobs, engine=engine)
        assert report == reference
        assert counters == ref_counters
        if memo and jobs == 1:
            # Memoization accounts its activity as gauges, never
            # counters; lookups equal the number of replayed warps.
            assert gauges["memo.warp_lookups"] == pickle.loads(
                report).metrics.n_warps
            assert "memo.warp_hits" in gauges
        if not memo:
            assert "memo.warp_lookups" not in gauges
        if mode != "vector":
            # Neither the per-block step nor the oracle replayer
            # consumes a span.
            assert gauges["replay.vector_tokens"] == 0


def _replicated_traces(n_threads, workload="memo_synth"):
    """Threads all sharing one token stream: every warp is memo-equal."""
    source, _ = trace_instance(get_workload("vectoradd").instantiate(1))
    tokens = list(source.threads[0].tokens)
    root = source.threads[0].root
    traces = TraceSet(workload=workload)
    for tid in range(n_threads):
        traces.new_thread(tid, root).tokens = list(tokens)
    return traces


class TestMemoMechanics:
    def test_identical_warps_hit_the_memo(self):
        traces = _replicated_traces(4 * WARP_SIZE)
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                       recorder=recorder)
        memo_report = analyzer.analyze(traces)
        gauges = recorder.telemetry().gauges
        assert gauges["memo.warp_lookups"] == 4
        assert gauges["memo.warp_hits"] == 3
        oracle = oracle_analyze(traces, AnalyzerConfig(warp_size=WARP_SIZE))
        assert pickle.dumps(memo_report) == pickle.dumps(oracle)

    def test_distinct_streams_do_not_collide(self):
        # Same root, same length, different block addresses: the
        # signature tuple must keep the warps apart.
        traces = _replicated_traces(2 * WARP_SIZE)
        second_warp = traces.threads[WARP_SIZE:]
        for thread in second_warp:
            tokens = list(thread.tokens)
            for i, token in enumerate(tokens):
                if token[0] == "B":
                    tokens[i] = (token[0], token[1] + 0x8, *token[2:])
            thread.tokens = tokens
        recorder = Recorder()
        ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                            recorder=recorder).analyze(traces)
        gauges = recorder.telemetry().gauges
        assert gauges["memo.warp_lookups"] == 2
        assert gauges["memo.warp_hits"] == 0

    def test_hits_clone_metrics_not_alias(self):
        traces = _replicated_traces(2 * WARP_SIZE)
        analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE))
        dcfgs = analyzer.prepare(traces)
        from repro.core.analyzer import _memo_key, replay_warps
        from repro.core.warp import form_warps

        warps = form_warps(traces, WARP_SIZE, "linear")
        assert _memo_key(warps[0]) == _memo_key(warps[1])
        memo = {}
        results, lookups, hits, _, _ = replay_warps(
            enumerate(warps), dcfgs, analyzer.config, memo)
        assert (lookups, hits) == (2, 1)
        first, clone = results[0][1], results[1][1]
        assert clone is not first
        assert pickle.dumps(clone) == pickle.dumps(first)
        # Mutating the clone (what aggregation-time merging may do)
        # must not leak back into the cached entry.
        clone.issues += 1
        assert clone.issues == first.issues + 1
        assert memo[_memo_key(warps[0])] is first


#: ``(workload, threads)``: the groups whose projections perfbench's
#: ``speedup_projection`` workload times.
PROJECTION_GROUPS = [("vectoradd", 32), ("rodinia_bfs", 32),
                     ("memcached", 32), ("md5", 16), ("nbody", 16)]


@functools.lru_cache(maxsize=None)
def _group_traces(name, threads):
    instance = get_workload(name).instantiate(threads)
    traces, _ = trace_instance(instance)
    return traces, instance.program


def _kernel_text(kernel):
    out = io.StringIO()
    save_kernel_trace(kernel, out)
    return out.getvalue()


class TestGeneratorParity:
    @pytest.mark.parametrize("emulate_locks", [False, True],
                             ids=["nolocks", "locks"])
    @pytest.mark.parametrize("warp_size", [4, 8, 16, 32])
    @pytest.mark.parametrize("name,threads", PROJECTION_GROUPS,
                             ids=[f"{n}@{t}" for n, t in PROJECTION_GROUPS])
    def test_projection_groups_match_the_oracle_replayer(
            self, monkeypatch, name, threads, warp_size, emulate_locks):
        """Span steps with a visitor emit the oracle's warp traces.

        The production replayer hands the warp-trace visitor its
        callbacks from span steps too; the text of every generated
        kernel trace must equal the one the tuple oracle's per-block
        callbacks produce.
        """
        traces, program = _group_traces(name, threads)

        def _generate():
            return _kernel_text(generate_kernel_trace(
                traces, program, warp_size=warp_size,
                emulate_locks=emulate_locks))

        production = _generate()
        monkeypatch.setattr(analyzer_module, "VectorWarpReplayer",
                            WarpReplayer)
        assert production == _generate()

    def test_kernel_traces_identical_with_memo_disabled(self, monkeypatch):
        """The warp-trace generator replays every warp fresh.

        Visitors need every warp's per-block callbacks, so the
        generator's replay never consults the warp memo, and the
        callbacks the production replayer issues must produce
        byte-identical warp traces to those of the tuple oracle
        replaying the same warps.
        """
        traces = _traces("vectoradd")
        program = get_workload("vectoradd").instantiate(N_THREADS).program

        def _serialize(kernel):
            out = io.StringIO()
            save_kernel_trace(kernel, out)
            return out.getvalue()

        memos = []
        replay_warps = analyzer_module.replay_warps

        def _spy(warps, dcfgs, cfg, memo=None, **kwargs):
            memos.append(memo)
            return replay_warps(warps, dcfgs, cfg, memo, **kwargs)

        monkeypatch.setattr(analyzer_module, "replay_warps", _spy)
        production = _serialize(
            generate_kernel_trace(traces, program, warp_size=WARP_SIZE))
        assert memos == [None]
        monkeypatch.setattr(analyzer_module, "VectorWarpReplayer",
                            WarpReplayer)
        oracle = _serialize(
            generate_kernel_trace(traces, program, warp_size=WARP_SIZE))
        assert production == oracle
