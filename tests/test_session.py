"""Tests for the staged AnalysisSession: caching, determinism, parallelism."""

import os
import weakref

import pytest

from repro import analyze_program, trace_program
from repro import pool as pool_mod
from repro.core import AnalyzerConfig, analyze_traces, sweep_warp_sizes
from repro.obs import Recorder
from repro.session import MEMO_ENTRIES, AnalysisSession
from repro.workloads import get_workload, runner

from util import build_lock_program, run_traced

#: (workload, emulate_locks) pairs for the jobs-parity matrix.
PARITY_WORKLOADS = [
    ("vectoradd", False),
    ("nn", False),
    ("btree", False),
    ("dsb_text", False),
    ("memcached", True),
]
N_THREADS = 16


def _assert_reports_equal(a, b):
    assert a.workload == b.workload
    assert a.simt_efficiency == b.simt_efficiency
    assert a.metrics.issues == b.metrics.issues
    assert a.metrics.thread_instructions == b.metrics.thread_instructions
    assert a.metrics.warp_efficiencies == b.metrics.warp_efficiencies
    assert a.heap_transactions == b.heap_transactions
    assert a.stack_transactions == b.stack_transactions
    assert a.metrics.divergence_events == b.metrics.divergence_events
    assert (a.metrics.locks.serialized_issues
            == b.metrics.locks.serialized_issues)
    assert {n: s.issues for n, s in a.metrics.per_function.items()} \
        == {n: s.issues for n, s in b.metrics.per_function.items()}


def _report_payloads(cache_dir):
    """All stored report payload bytes, keyed by file name."""
    payloads = {}
    top = os.path.join(cache_dir, "objects", "report")
    for dirpath, _subdirs, names in os.walk(top):
        for name in names:
            if name.endswith(".pkl"):
                with open(os.path.join(dirpath, name), "rb") as inp:
                    payloads[name] = inp.read()
    return payloads


class TestStagedPipeline:
    def test_stages_match_one_shot_analysis(self):
        session = AnalysisSession()
        traces = session.trace("dsb_text", n_threads=N_THREADS)
        fields = session.trace_fields("dsb_text", N_THREADS)
        dcfgs = session.prepare(traces, fields=fields)
        config = AnalyzerConfig(warp_size=8)
        staged = session.replay(traces, config=config, dcfgs=dcfgs)
        direct = analyze_traces(traces, warp_size=8)
        _assert_reports_equal(staged, direct)

    def test_analyze_matches_stages(self):
        session = AnalysisSession()
        config = AnalyzerConfig(warp_size=8)
        full = session.analyze("nn", n_threads=N_THREADS, config=config)
        traces = session.trace("nn", n_threads=N_THREADS)
        direct = analyze_traces(traces, warp_size=8)
        _assert_reports_equal(full, direct)
        # The trace stage ran exactly once for both calls.
        assert session.executions == 1

    def test_transform_stage_changes_program(self):
        session = AnalysisSession()
        instance = session.build("vectoradd", N_THREADS)
        assert session.transform(instance.program, "O1") is instance.program
        o0 = session.transform(instance.program, "O0")
        assert o0 is not instance.program
        with pytest.raises(ValueError, match="optimization level"):
            session.transform(instance.program, "O9")

    def test_opt_level_traces_differ(self):
        session = AnalysisSession()
        base = session.trace("vectoradd", n_threads=N_THREADS)
        spilled = session.trace("vectoradd", n_threads=N_THREADS,
                                opt_level="O0")
        assert spilled.total_instructions > base.total_instructions
        assert session.executions == 2

    def test_sweep_shares_trace_stage(self):
        session = AnalysisSession()
        reports = session.sweep("dsb_text", (4, 8, 16),
                                n_threads=32)
        assert sorted(reports) == [4, 8, 16]
        effs = [reports[w].simt_efficiency for w in (4, 8, 16)]
        assert effs == sorted(effs, reverse=True)
        assert session.executions == 1

    @pytest.mark.parametrize("n_threads", [0, -3, 2.5, True])
    def test_thread_count_must_be_none_or_positive(self, n_threads):
        session = AnalysisSession(cache_dir=None)
        with pytest.raises(ValueError, match="n_threads"):
            session.analyze("vectoradd", n_threads=n_threads)
        with pytest.raises(ValueError, match="n_threads"):
            session.trace_fields("vectoradd", n_threads)
        with pytest.raises(ValueError, match="n_threads"):
            get_workload("vectoradd").instantiate(n_threads)
        assert session.executions == 0

    def test_no_thread_count_means_the_default(self):
        session = AnalysisSession(cache_dir=None)
        default = get_workload("vectoradd").default_threads
        assert session.trace_fields("vectoradd")["n_threads"] == default
        assert session.build("vectoradd") is session.build("vectoradd",
                                                           default)


class TestArtifactCaching:
    def test_warm_session_skips_machine_execution(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = AnalysisSession(cache_dir=cache)
        cold_report = cold.analyze("vectoradd", n_threads=N_THREADS)
        assert cold.executions == 1

        warm = AnalysisSession(cache_dir=cache)
        warm_report = warm.analyze("vectoradd", n_threads=N_THREADS)
        assert warm.executions == 0
        assert warm.cache_stats.hits == 1
        _assert_reports_equal(cold_report, warm_report)

    def test_warm_session_never_calls_the_tracer(self, tmp_path,
                                                 monkeypatch):
        cache = str(tmp_path / "cache")
        AnalysisSession(cache_dir=cache).analyze("nn", n_threads=N_THREADS)

        def explode(*_args, **_kwargs):
            raise AssertionError("tracer stage invoked on a cache hit")

        monkeypatch.setattr(runner, "execute_traced", explode)
        warm = AnalysisSession(cache_dir=cache)
        report = warm.analyze("nn", n_threads=N_THREADS)
        assert report.n_threads == N_THREADS

    def test_warm_trace_stage_reuses_stored_traces(self, tmp_path,
                                                   monkeypatch):
        cache = str(tmp_path / "cache")
        cold = AnalysisSession(cache_dir=cache)
        original = cold.trace("btree", n_threads=N_THREADS)

        monkeypatch.setattr(
            runner, "execute_traced",
            lambda *a, **k: pytest.fail("re-traced despite cache"),
        )
        warm = AnalysisSession(cache_dir=cache)
        loaded = warm.trace("btree", n_threads=N_THREADS)
        assert loaded.total_instructions == original.total_instructions
        # A different analyzer config replays the *stored* traces.
        report = warm.analyze("btree", n_threads=N_THREADS,
                              config=AnalyzerConfig(warp_size=4))
        assert report.warp_size == 4

    def test_distinct_configs_are_distinct_artifacts(self, tmp_path):
        cache = str(tmp_path / "cache")
        session = AnalysisSession(cache_dir=cache)
        narrow = session.analyze("dsb_text", n_threads=32,
                                 config=AnalyzerConfig(warp_size=4))
        wide = session.analyze("dsb_text", n_threads=32,
                               config=AnalyzerConfig(warp_size=32))
        assert narrow.warp_size == 4
        assert wide.warp_size == 32
        assert len(_report_payloads(cache)) == 2

    def test_cli_warm_cache_skips_execution(self, tmp_path, monkeypatch,
                                            capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["analyze", "vectoradd", "--threads", "16",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

        def explode(*_args, **_kwargs):
            raise AssertionError("machine executed on warm CLI run")

        monkeypatch.setattr(runner, "execute_traced", explode)
        assert main(["analyze", "vectoradd", "--threads", "16",
                     "--cache-dir", cache]) == 0
        assert "SIMT efficiency" in capsys.readouterr().out


class TestDeterminism:
    def test_same_fingerprint_byte_identical_artifact(self, tmp_path):
        first_dir = str(tmp_path / "first")
        second_dir = str(tmp_path / "second")
        AnalysisSession(cache_dir=first_dir).analyze(
            "dsb_text", n_threads=N_THREADS
        )
        AnalysisSession(cache_dir=second_dir).analyze(
            "dsb_text", n_threads=N_THREADS
        )
        assert _report_payloads(first_dir) == _report_payloads(second_dir)

    def test_jobs_do_not_change_stored_artifact(self, tmp_path):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        config = AnalyzerConfig(warp_size=4, emulate_locks=True)
        serial = AnalysisSession(cache_dir=serial_dir, jobs=1).analyze(
            "memcached", n_threads=N_THREADS, config=config
        )
        parallel = AnalysisSession(cache_dir=parallel_dir, jobs=4).analyze(
            "memcached", n_threads=N_THREADS, config=config
        )
        _assert_reports_equal(serial, parallel)
        assert _report_payloads(serial_dir) == _report_payloads(parallel_dir)


class TestParallelReplayParity:
    @pytest.mark.parametrize("name,emulate_locks", PARITY_WORKLOADS)
    def test_jobs_replay_is_bit_identical(self, name, emulate_locks):
        session = AnalysisSession()
        traces = session.trace(name, n_threads=N_THREADS)
        config = AnalyzerConfig(warp_size=4, emulate_locks=emulate_locks)
        serial = session.replay(traces, config=config, jobs=1)
        parallel = session.replay(traces, config=config, jobs=4)
        _assert_reports_equal(serial, parallel)

    def test_trace_many_matches_serial_tracing(self, tmp_path):
        names = ["vectoradd", "nn", "btree"]
        parallel = AnalysisSession(cache_dir=str(tmp_path / "p"), jobs=3)
        traced = parallel.trace_many(names, n_threads=N_THREADS)
        serial = AnalysisSession()
        from repro.artifacts import KIND_TRACES, serialize_traces

        for name in names:
            expected = serial.trace(name, n_threads=N_THREADS)
            assert serialize_traces(traced[name]) \
                == serialize_traces(expected)
            # The store keeps the bytes the worker shipped: the serial
            # run's bytes.
            fields = parallel.trace_fields(name, N_THREADS)
            assert parallel.store.get_bytes(KIND_TRACES, fields) \
                == serialize_traces(expected)
        # Concurrent generation still populated the artifact store.
        warm = AnalysisSession(cache_dir=str(tmp_path / "p"))
        warm.trace_many(names, n_threads=N_THREADS)
        assert warm.executions == 0


class TestBoundedMemos:
    def test_session_keeps_a_bounded_number_of_trace_sets(self, tmp_path):
        """A long-lived store-backed session (a server's, a benchmark's)
        holds at most MEMO_ENTRIES trace sets, however many distinct
        analyses it runs."""
        session = AnalysisSession(cache_dir=str(tmp_path))
        refs = []
        for seed in range(MEMO_ENTRIES + 4):
            session.analyze("vectoradd", n_threads=8, seed=seed)
            refs.append(weakref.ref(
                session.trace("vectoradd", n_threads=8, seed=seed)))
        assert sum(ref() is not None for ref in refs) <= MEMO_ENTRIES
        # The newest entries are still served from memory.
        assert session.trace("vectoradd", n_threads=8,
                             seed=MEMO_ENTRIES + 3) is refs[-1]()

    def test_a_sweep_is_still_served_from_the_memos(self):
        session = AnalysisSession(recorder=Recorder())
        widths = (4, 8, 16, 32)
        first = session.sweep("vectoradd", warp_sizes=widths, n_threads=8)
        again = session.sweep("vectoradd", warp_sizes=widths, n_threads=8)
        counters = session.telemetry().counters
        assert counters["trace.executions"] == 1
        assert counters["report.memo_hits"] == len(widths)
        assert all(again[w] is first[w] for w in widths)

    def test_close_releases_arenas_of_evicted_trace_sets(self):
        """Trace sets evicted from the memo but still held (and replayed
        on the pool) have their arenas released by close()."""
        session = AnalysisSession(jobs=2)
        held = []
        for seed in range(MEMO_ENTRIES + 2):
            traces = session.trace("vectoradd", n_threads=N_THREADS,
                                   seed=seed)
            session.replay(traces, config=AnalyzerConfig(warp_size=4))
            held.append(traces)
        session.close()
        assert pool_mod.live_arenas() == []


class TestConfigPlumbingFixes:
    def _lock_traces(self):
        program, _lock, _counter = build_lock_program(shared_lock=True)
        spawns = [("worker", [t], None) for t in range(8)]
        traces, _machine = run_traced(program, spawns, ["worker"])
        return program, spawns, traces

    def test_sweep_accepts_full_config(self):
        _program, _spawns, traces = self._lock_traces()
        config = AnalyzerConfig(emulate_locks=True,
                                lock_reconvergence="exit")
        swept = sweep_warp_sizes(traces, (4,), config=config)
        direct = analyze_traces(traces, warp_size=4, emulate_locks=True,
                                lock_reconvergence="exit")
        _assert_reports_equal(swept[4], direct)

    def test_sweep_does_not_mutate_caller_config(self):
        _program, _spawns, traces = self._lock_traces()
        config = AnalyzerConfig(warp_size=999, emulate_locks=True)
        sweep_warp_sizes(traces, (4, 8), config=config)
        assert config.warp_size == 999
        assert config.emulate_locks is True

    def test_sweep_lock_reconvergence_keyword(self):
        _program, _spawns, traces = self._lock_traces()
        relaxed = sweep_warp_sizes(traces, (4,), emulate_locks=True,
                                   lock_reconvergence="unlock")
        strict = sweep_warp_sizes(traces, (4,), emulate_locks=True,
                                  lock_reconvergence="exit")
        assert strict[4].simt_efficiency < relaxed[4].simt_efficiency

    def test_analyze_program_forwards_lock_reconvergence(self):
        program, spawns, traces = self._lock_traces()
        for policy in ("unlock", "exit"):
            helper = analyze_program(
                program, spawns, ["worker"], warp_size=4,
                emulate_locks=True, lock_reconvergence=policy,
            )
            direct = analyze_traces(traces, warp_size=4, emulate_locks=True,
                                    lock_reconvergence=policy)
            assert helper.simt_efficiency == direct.simt_efficiency
            assert helper.metrics.issues == direct.metrics.issues

    def test_analyze_program_accepts_full_config(self):
        program, spawns, traces = self._lock_traces()
        config = AnalyzerConfig(warp_size=4, emulate_locks=True,
                                lock_reconvergence="exit")
        helper = analyze_program(program, spawns, ["worker"], config=config,
                                 workload="test")
        direct = analyze_traces(traces, warp_size=4, emulate_locks=True,
                                lock_reconvergence="exit")
        _assert_reports_equal(helper, direct)

    def test_trace_program_routes_through_session(self):
        program, spawns, _traces = self._lock_traces()
        session = AnalysisSession()
        traces = trace_program(program, spawns, ["worker"],
                               session=session)
        assert session.executions == 1
        assert len(traces) == 8
