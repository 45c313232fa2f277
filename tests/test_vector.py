"""The bulk column primitives and the production replayer's span paths.

:mod:`repro.core.vector` hosts the bulk column primitives behind the
span steps of :class:`~repro.core.replay.VectorWarpReplayer`.  These
tests pin them down at every layer: each primitive agrees with its
plain definition on randomized columns (``array`` and shared-memory
``memoryview`` alike), a converged synthetic stream is consumed
entirely through the span path with the oracle's metrics, a corrupt
stream raises the exact same :class:`~repro.core.ReplayError` as the
tuple oracle, and the ``replay.vector_*`` gauges surface utilization
without ever touching counters.
"""

import array
import builtins
import functools
import importlib
import pickle
import random

import pytest

from repro.core import (
    AnalyzerConfig,
    ReplayError,
    ThreadFuserAnalyzer,
    VectorWarpReplayer,
    WarpReplayer,
    build_dcfgs,
    compute_all_ipdoms,
)
from repro.core import vector
from repro.obs import Recorder
from repro.tracer.events import TOK_BLOCK, TraceSet
from repro.workloads import get_workload, trace_instance

N_THREADS = 32
WARP_SIZE = 8

STACK_BASE = 0x7000_0000


@functools.lru_cache(maxsize=None)
def _traces():
    traces, _ = trace_instance(get_workload("vectoradd").instantiate(
        N_THREADS))
    return traces


def _analyze(recorder=None, jobs=1):
    analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                   jobs=jobs, recorder=recorder)
    return analyzer.analyze(_traces())


# -- each primitive against its definition on randomized columns ----------


def _first_index_def(col, lo, hi, value):
    return next((i for i in range(lo, hi) if col[i] == value), -1)


def _prefix_len_def(a, ao, b, bo, k):
    n = 0
    while n < k and a[ao + n] == b[bo + n]:
        n += 1
    return n


def _split(stats):
    """``{is_stack: [instructions, transactions]}`` as a 4-tuple."""
    return (stats[False][0], stats[False][1],
            stats[True][0], stats[True][1])


def _span_stats_def(fcols, lcols, los, maddr, nrec, threshold):
    stats = {False: [0, 0], True: [0, 0]}
    for i in range(nrec):
        segments = set()
        for f, last, lo in zip(fcols, lcols, los):
            segments.update(range(f[lo + i], last[lo + i] + 1))
        entry = stats[maddr[los[0] + i] >= threshold]
        entry[0] += 1
        entry[1] += len(segments)
    return _split(stats)


def _solo_span_stats_def(maddr, msegf, msegl, lo, hi, threshold):
    return _span_stats_def([msegf], [msegl], [lo], maddr, hi - lo,
                           threshold)


class TestBackendPrimitiveParity:
    def test_first_index(self):
        rng = random.Random(7)
        col = array.array("q", [rng.randrange(6) for _ in range(300)])
        for lo, hi in ((0, 300), (5, 40), (120, 300), (17, 18), (9, 9)):
            for value in range(-1, 7):
                assert (vector.first_index(col, lo, hi, value)
                        == _first_index_def(col, lo, hi, value))

    def test_first_index_on_memoryview_columns(self):
        # Shared-memory arenas hand the primitives memoryview casts,
        # which lack ``array.index`` -- the loop fallback must agree.
        col = array.array("q", [3, 1, 4, 1, 5, 9, 2, 6] * 20)
        view = memoryview(col)
        for lo, hi in ((0, len(col)), (2, 50), (30, 31)):
            for value in (1, 9, 7):
                assert (vector.first_index(view, lo, hi, value)
                        == vector.first_index(col, lo, hi, value)
                        == _first_index_def(col, lo, hi, value))

    def test_prefix_len(self):
        rng = random.Random(11)
        a = array.array("q", [rng.randrange(50) for _ in range(400)])
        for d in (0, 1, 63, 64, 200, 399):
            b = array.array("q", a)
            b[d] ^= 1
            for k in (1, 2, 63, 64, 128, 400):
                assert vector.prefix_len(a, 0, b, 0, k) == min(d, k)
                assert (vector.prefix_len(a, 0, memoryview(b), 0, k)
                        == _prefix_len_def(a, 0, b, 0, k))
        b = array.array("q", a)
        assert vector.prefix_len(a, 0, b, 0, 400) == 400
        # Offset slices compare windows, not whole columns.
        assert vector.prefix_len(a, 100, a, 100, 200) == 200
        assert (vector.prefix_len(a, 3, a, 5, 100)
                == _prefix_len_def(a, 3, a, 5, 100))

    def test_span_stats(self):
        rng = random.Random(23)
        n_lanes, nrec = 5, 96
        fcols, lcols, los = [], [], []
        base_lo = 7
        for k in range(n_lanes):
            lo = base_lo + 3 * k
            los.append(lo)
            f = array.array("q", [0] * (lo + nrec + 5))
            last = array.array("q", f)
            for i in range(nrec):
                seg = rng.randrange(1 << 20)
                f[lo + i] = seg
                last[lo + i] = seg + rng.choice((0, 0, 0, 1, 2))
            fcols.append(f)
            lcols.append(last)
        maddr = array.array("q", [0] * (base_lo + nrec))
        for i in range(nrec):
            maddr[base_lo + i] = rng.choice(
                (0x2000 + 32 * i, STACK_BASE + 64 * i))
        for nrec_k in (nrec, 3):
            assert (vector.span_stats(fcols, lcols, los, maddr, nrec_k,
                                      STACK_BASE)
                    == _span_stats_def(fcols, lcols, los, maddr, nrec_k,
                                       STACK_BASE))
        # All-single-segment accesses take the distinct-segment path.
        assert (vector.span_stats(fcols, fcols, los, maddr, nrec,
                                  STACK_BASE)
                == _span_stats_def(fcols, fcols, los, maddr, nrec,
                                   STACK_BASE))

    def test_solo_span_stats(self):
        rng = random.Random(31)
        n = 200
        msegf, msegl, maddr = (array.array("q") for _ in range(3))
        for _ in range(n):
            seg = rng.randrange(1 << 16)
            msegf.append(seg)
            msegl.append(seg + rng.randrange(3))
            maddr.append(rng.choice((0x1000, STACK_BASE + 0x100)))
        for lo, hi in ((0, n), (3, 9), (50, 180)):
            assert (vector.solo_span_stats(maddr, msegf, msegl, lo, hi,
                                           STACK_BASE)
                    == _solo_span_stats_def(maddr, msegf, msegl, lo, hi,
                                            STACK_BASE))


class TestNoNumpyFallback:
    def test_missing_numpy_degrades_to_array_backend(self):
        """A failed ``import numpy`` must be invisible in the report.

        The primitives are pure stdlib ``array`` code, so with numpy
        unimportable the module still reloads, reports no numpy
        acceleration, and the analysis stays byte-identical.
        """
        reference = pickle.dumps(_analyze())
        real_import = builtins.__import__

        def _no_numpy(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy disabled for test")
            return real_import(name, *args, **kwargs)

        try:
            builtins.__import__ = _no_numpy
            importlib.reload(vector)
            assert not vector.numpy_active()
            fallback = pickle.dumps(_analyze())
        finally:
            builtins.__import__ = real_import
            importlib.reload(vector)
        assert fallback == reference


# -- synthetic warps: bulk-path coverage and error parity -----------------


def _converged_traces(n_threads=8, n_tokens=64):
    """Identical lanes: the whole stream is one converged bulk span."""
    tokens = []
    for i in range(n_tokens):
        mems = (((0, i % 2 == 0, 0x2000 + 32 * i, 8),)
                if i % 3 == 0 else ())
        tokens.append((TOK_BLOCK, 0x100 + 8 * i, 2, mems))
    traces = TraceSet(workload="vector_synth")
    for tid in range(n_threads):
        traces.new_thread(tid, "worker").tokens = list(tokens)
    return traces


def _prepared(traces):
    dcfgs = build_dcfgs(traces)
    compute_all_ipdoms(dcfgs)
    return dcfgs


class _CallLog:
    """A warp-trace visitor that records every callback it receives."""

    def __init__(self):
        self.calls = []

    def on_issue(self, *args):
        self.calls.append(("issue",) + args)

    def on_mem_issue(self, *args):
        self.calls.append(("mem",) + args)


#: The representative lane's records: one heap access, and one stack
#: access that straddles a 32-byte boundary.
_REP_RECORDS = ((0, False, 0x2000, 8), (1, True, STACK_BASE + 0x3C, 8))

#: Lane 1's records for the same block in each alignment case; lanes 0
#: and 2 carry ``_REP_RECORDS``.
_LANE_RECORDS = {
    "extra_trailing_record": _REP_RECORDS + ((2, False, 0x2100, 4),),
    "missing_second_record": _REP_RECORDS[:1],
    "slot_differs": ((0, False, 0x2020, 8), (5, True, STACK_BASE + 0x40, 8)),
    "store_differs": ((0, True, 0x2020, 8), (1, True, STACK_BASE + 0x40, 8)),
}


def _outcome(replayer_cls, traces, dcfgs, visitor):
    """The metrics pickle of a replay, or its ``ReplayError`` message."""
    replayer = replayer_cls(traces.threads, dcfgs, 4, visitor=visitor)
    try:
        return pickle.dumps(replayer.run())
    except ReplayError as exc:
        return str(exc)


class TestVectorReplayer:
    def test_converged_stream_is_consumed_entirely_in_bulk(self):
        traces = _converged_traces()
        dcfgs = _prepared(traces)
        vec = VectorWarpReplayer(traces.threads, dcfgs, 8)
        vec.run()
        assert vec.total_tokens > 0
        assert vec.vector_tokens == vec.total_tokens
        oracle = WarpReplayer(traces.threads, dcfgs, 8)
        oracle.run()
        assert pickle.dumps(vec.metrics) == pickle.dumps(oracle.metrics)

    def test_misaligned_records_raise_the_oracle_error(self):
        # Lanes agree on a long record-free prefix (entering the span
        # path), then lane 1 misses lane 0's memory record: the
        # production replayer must shrink to the agreeing prefix and
        # surface the tuple oracle's exact misalignment error.
        prefix = [(TOK_BLOCK, 0x100 + 8 * i, 1, ()) for i in range(12)]
        tail = [(TOK_BLOCK, 0x300, 1, ())]
        with_rec = prefix + [(TOK_BLOCK, 0x200, 1,
                              ((0, True, 0x2000, 8),))] + tail
        without_rec = prefix + [(TOK_BLOCK, 0x200, 1, ())] + tail
        traces = TraceSet(workload="vector_err")
        traces.new_thread(0, "worker").tokens = with_rec
        traces.new_thread(1, "worker").tokens = without_rec
        dcfgs = _prepared(traces)
        with pytest.raises(ReplayError) as oracle_err:
            WarpReplayer(traces.threads, dcfgs, 2).run()
        with pytest.raises(ReplayError) as vector_err:
            VectorWarpReplayer(traces.threads, dcfgs, 2).run()
        assert str(vector_err.value) == str(oracle_err.value)
        assert "misaligned" in str(oracle_err.value)

    @pytest.mark.parametrize("visited", [False, True],
                             ids=["no_visitor", "visitor"])
    @pytest.mark.parametrize("case", sorted(_LANE_RECORDS))
    def test_per_block_alignment_rules_match_the_oracle(self, case,
                                                        visited):
        # Three blocks are shorter than MIN_SPAN, so the production
        # replayer steps them one at a time and applies its own
        # per-block alignment check to the middle block's records.  The
        # last block's record has the shape of the representative's
        # second record, so a lane that lacks it cannot borrow it from
        # the next block.
        traces = TraceSet(workload="vector_align")
        for tid, records in enumerate(
                (_REP_RECORDS, _LANE_RECORDS[case], _REP_RECORDS)):
            traces.new_thread(tid, "worker").tokens = [
                (TOK_BLOCK, 0x100, 2, ()),
                (TOK_BLOCK, 0x108, 3, records),
                (TOK_BLOCK, 0x110, 1, ((1, True, STACK_BASE + 0x80, 4),)),
            ]
        assert len(traces.threads[0].tokens) < VectorWarpReplayer.MIN_SPAN
        dcfgs = _prepared(traces)
        results = []
        for replayer_cls in (WarpReplayer, VectorWarpReplayer):
            log = _CallLog() if visited else None
            results.append((_outcome(replayer_cls, traces, dcfgs, log),
                            log.calls if visited else None))
        assert results[1] == results[0]


# -- telemetry ------------------------------------------------------------


class TestVectorTelemetry:
    def test_vector_gauges_are_emitted(self):
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(AnalyzerConfig(warp_size=WARP_SIZE),
                                       recorder=recorder)
        analyzer.analyze(_converged_traces(n_threads=16))
        gauges = recorder.telemetry().gauges
        assert gauges["replay.vector_tokens"] > 0
        assert (gauges["replay.vector_total_tokens"]
                >= gauges["replay.vector_tokens"])
        assert gauges["replay.vector_token_fraction"] == 1.0

    def test_sharded_replay_aggregates_the_gauges(self):
        recorder = Recorder()
        _analyze(recorder=recorder, jobs=2)
        gauges = recorder.telemetry().gauges
        assert 0.0 <= gauges["replay.vector_token_fraction"] <= 1.0
        assert (gauges["replay.vector_total_tokens"]
                >= gauges["replay.vector_tokens"])
