"""The persistent worker pool and shared-memory column arenas.

Covers the :mod:`repro.pool` substrate end to end:

* arena round-trips -- workers rebuild traces zero-copy from the
  shared columns, with content-signature verification intact (a
  corrupted segment is detected, never silently replayed);
* pool lifecycle -- spawn-once reuse across batches, crash respawn,
  per-task timeouts, bug propagation with the remote traceback, clean
  shutdown;
* the parity matrix -- persistent-pool results, on a cold or a warm
  call, and the serial fallback's equal the reference oracle's (pickled
  reports *and* telemetry counters) across jobs 1/2/4/8 and both
  execution engines;
* the zero-leak guarantee -- after ``AnalysisSession.close()`` no
  arena is live and no ``tfuser-*`` segment remains in ``/dev/shm``;
* the no-silent-fallback contract -- a run that degrades to serial
  replay despite ``jobs>1`` reports a ``pool.fallback`` gauge and a
  one-time ``RuntimeWarning``, and stays bit-identical.
"""

import functools
import gc
import glob
import os
import pickle
import select
import signal
import socket
import stat
import subprocess
import sys
import time

import pytest

import repro.pool as pool_mod
from repro import faults
from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.errors import TraceCorruptError
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Recorder
from repro.session import AnalysisSession
from repro import artifacts
from repro.artifacts import serialize_traces
from repro.tracer.events import TraceSet
from repro.tracer.packed import PackedTrace
from repro.workloads import get_workload, trace_instance

from util import oracle_analyze

N_THREADS = 48
WARP_SIZE = 16

pytestmark = pytest.mark.skipif(
    not pool_mod.shm_supported(), reason="no usable shared memory here")


@pytest.fixture
def quiet_faults():
    """Mask any environment-wide fault plan (THREADFUSER_FAULTS).

    The white-box tests below drive :class:`WorkerPool` and
    :class:`ColumnArena` directly, below the recovery layer -- an
    ambient injected spawn/unlink fault would surface raw instead of
    being recovered.  Tests that exercise the recovery surfaces
    (analyzer, session) deliberately do NOT use this fixture, so the
    smoke-pool CI job still runs them under injection.
    """
    with faults.injected(None):
        yield


@functools.lru_cache(maxsize=None)
def _traces(name, n_threads=N_THREADS, engine=None):
    instance = get_workload(name).instantiate(n_threads)
    overrides = {} if engine is None else {"engine": engine}
    traces, _ = trace_instance(instance, **overrides)
    return traces


def _fresh_pool():
    """A cold substrate: tears down the process-wide pool and arenas."""
    pool_mod.shutdown()
    return pool_mod.shared_pool()


def _shm_segments():
    return sorted(os.path.basename(path)
                  for path in glob.glob("/dev/shm/tfuser-*"))


# -- arena round-trips ----------------------------------------------------


@pytest.mark.usefixtures("quiet_faults")
class TestColumnArena:
    def test_roundtrip_is_exact_and_zero_copy(self):
        traces = _traces("vectoradd")
        arena = pool_mod.ColumnArena.build(traces)
        try:
            for trace, (index, cpu_tid, root, desc) in zip(
                    traces.threads, arena.descriptors):
                assert (index, cpu_tid, root) == (
                    trace.index, trace.cpu_tid, trace.root)
                rebuilt = PackedTrace.from_shm(desc, arena.shm.buf)
                # Zero-copy: the columns are memoryviews over the
                # segment, not freshly allocated arrays.
                assert isinstance(rebuilt.kinds, memoryview)
                assert rebuilt.to_tokens() == trace.tokens
                # Signature verification still works over shared bytes.
                assert not rebuilt._verified
                rebuilt.ensure_verified()
                assert rebuilt.signature == trace.signature
        finally:
            # Drop the column views before closing the mapping.
            rebuilt = None
            gc.collect()
            arena.close()

    def test_corruption_is_detected(self):
        traces = _traces("vectoradd")
        arena = pool_mod.ColumnArena.build(traces)
        try:
            descriptor = arena.descriptors[0][3]
            _signature, _names, spans = descriptor
            offset, _count = spans[0]
            arena.shm.buf[offset] ^= 0xFF
            rebuilt = PackedTrace.from_shm(descriptor, arena.shm.buf)
            with pytest.raises(TraceCorruptError):
                rebuilt.ensure_verified()
        finally:
            rebuilt = None
            gc.collect()
            arena.close()

    def test_close_unlinks_and_is_idempotent(self):
        traces = _traces("vectoradd")
        arena = pool_mod.arena_for(traces)
        name = arena.name
        assert name in _shm_segments()
        assert arena in pool_mod.live_arenas()
        pool_mod.release_arena(traces)
        assert name not in _shm_segments()
        assert arena not in pool_mod.live_arenas()
        arena.close()  # idempotent
        pool_mod.release_arena(traces)  # idempotent

    def test_arena_is_cached_per_traceset(self):
        traces = _traces("vectoradd")
        arena = pool_mod.arena_for(traces)
        try:
            assert pool_mod.arena_for(traces) is arena
        finally:
            pool_mod.release_arena(traces)

    def test_unlink_failure_defers_to_shutdown(self):
        traces = TraceSet(workload="leaky")
        traces.new_thread(0, "k").tokens = [("B", 0x10, 1, ())]
        traces.new_thread(1, "k").tokens = [("B", 0x10, 1, ())]
        arena = pool_mod.arena_for(traces)
        name = arena.name
        plan = FaultPlan([FaultSpec(site="shm.unlink", kind="raise",
                                    count=999)])
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning, match="deferred"):
                pool_mod._WARNED.discard("shm-unlink-deferred")
                pool_mod.release_arena(traces)
        assert name in pool_mod.leaked_segments()
        assert name in _shm_segments()
        pool_mod.shutdown()  # the reclamation pass
        assert pool_mod.leaked_segments() == []
        assert name not in _shm_segments()


# -- pool lifecycle -------------------------------------------------------


def _echo(payload):
    return ("echo", payload, os.getpid())


def _boom(payload):
    raise ValueError(f"task bug {payload}")


def _transient(payload):
    raise OSError(f"flaky {payload}")


def _die(payload):
    os._exit(86)


def _sleepy(payload):
    time.sleep(payload)
    return payload


def _inet_ports(_payload):
    """Pool task: the local ports of the worker's AF_INET sockets."""
    ports = []
    for name in os.listdir("/dev/fd"):
        try:
            if not stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                continue
            sock = socket.socket(fileno=os.dup(int(name)))
        except OSError:
            continue  # the listing's own descriptor, closed by now
        with sock:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                ports.append(sock.getsockname()[1])
    return sorted(ports)


def _running(pid):
    """Whether ``pid`` is alive and not a zombie (an exited orphan that
    nothing has reaped yet)."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat") as status:
            return status.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_NO_DEV_FD = pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                                reason="lists descriptors through /dev/fd")


@pytest.mark.usefixtures("quiet_faults")
class TestWorkerPool:
    def test_workers_are_reused_across_batches(self):
        pool = _fresh_pool()
        tasks = [(_echo, i, f"t{i}") for i in range(4)]
        first = pool.run_tasks(tasks, jobs=2)
        second = pool.run_tasks(tasks, jobs=2)
        assert [r[1] for r in first] == [0, 1, 2, 3]
        pids = {r[2] for r in first}
        assert pids == {r[2] for r in second}
        assert pool.stats["spawned"] == 2
        assert pool.stats["reused_batches"] >= 1

    def test_dead_worker_is_respawned_and_batch_completes(self):
        pool = _fresh_pool()
        pool.run_tasks([(_echo, i, f"t{i}") for i in range(2)], jobs=2)
        for slot in pool._slots:
            slot.process.terminate()
            slot.process.join(timeout=5)
        out = pool.run_tasks([(_echo, i, f"t{i}") for i in range(2)],
                             jobs=2)
        assert [r[1] for r in out] == [0, 1]

    def test_kill_mid_task_yields_none_not_crash(self):
        pool = _fresh_pool()
        out = pool.run_tasks(
            [(_die, 0, "t0"), (_echo, 1, "t1")], jobs=2)
        assert out[0] is None
        assert out[1][1] == 1
        assert pool.stats["worker_failures"] >= 1
        # The pool stays usable afterwards.
        again = pool.run_tasks([(_echo, 9, "t9")], jobs=1)
        assert again[0][1] == 9

    def test_timeout_is_retryable_not_fatal(self):
        pool = _fresh_pool()
        out = pool.run_tasks([(_sleepy, 30.0, "slow")], jobs=1,
                             stage_timeout=0.3)
        assert out == [None]
        assert pool.stats["worker_failures"] >= 1
        assert pool.run_tasks([(_echo, 1, "t")], jobs=1)[0][1] == 1

    def test_transient_task_error_yields_none(self):
        pool = _fresh_pool()
        out = pool.run_tasks(
            [(_transient, 0, "t0"), (_echo, 1, "t1")], jobs=2)
        assert out[0] is None
        assert out[1][1] == 1

    def test_bug_propagates_with_remote_traceback(self):
        pool = _fresh_pool()
        with pytest.raises(ValueError, match="task bug") as excinfo:
            pool.run_tasks([(_boom, 7, "t7")], jobs=1)
        assert isinstance(excinfo.value.__cause__,
                          pool_mod.RemoteTraceback)
        assert "_boom" in str(excinfo.value.__cause__)

    def test_a_fired_result_check_costs_only_its_own_task(self):
        # Each task is checked exactly once, and a fired check costs
        # only its own task.
        pool = _fresh_pool()
        plan = FaultPlan([FaultSpec(site="pool.result", kind="timeout",
                                    match="b")])
        with faults.injected(plan):
            out = pool.run_tasks([(_echo, 4, "a"), (_echo, 2, "b")],
                                 jobs=2)
        assert out[0][:2] == ("echo", 4) and out[1] is None
        assert {key: hits for key, hits in plan.hits.items()
                if key[0] == "pool.result"} == {
            ("pool.result", "a"): 1, ("pool.result", "b"): 1}

    def test_close_terminates_workers(self):
        pool = _fresh_pool()
        pool.run_tasks([(_echo, 0, "t0")], jobs=1)
        processes = [slot.process for slot in pool._slots
                     if slot.process is not None]
        pool.close()
        assert all(not proc.is_alive() for proc in processes)
        with pytest.raises(OSError):
            pool.run_tasks([(_echo, 0, "t0")], jobs=1)
        # shared_pool() hands out a fresh one after a close/shutdown.
        assert pool_mod.shared_pool() is not pool

    @_NO_DEV_FD
    def test_workers_drop_the_sockets_they_inherit(self):
        listener = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(listener.getsockname())
        server_side, _addr = listener.accept()
        try:
            pool = _fresh_pool()
            out = pool.run_tasks([(_inet_ports, None, "t0"),
                                  (_inet_ports, None, "t1")], jobs=2)
            assert out == [[], []]
        finally:
            for sock in (server_side, client, listener):
                sock.close()
            pool_mod.shutdown()

    @_NO_DEV_FD
    def test_workers_exit_when_their_parent_is_killed(self):
        # Each worker must read EOF from its pipe once the parent dies:
        # no worker may hold the parent's end of any pipe.
        code = ("import time\n"
                "from repro import pool\n"
                "workers = pool.shared_pool().ensure_workers(2)\n"
                "print(*[slot.process.pid for slot in workers], "
                "flush=True)\n"
                "time.sleep(60)\n")
        env = dict(os.environ)
        env.pop("THREADFUSER_FAULTS", None)
        src = os.path.dirname(os.path.dirname(pool_mod.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        parent = subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
        try:
            ready, _w, _x = select.select([parent.stdout], [], [], 60.0)
            pids = ([int(pid) for pid in parent.stdout.readline().split()]
                    if ready else [])
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        alive = pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if _running(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert alive == []


# -- the substrate parity matrix -----------------------------------------


def _config(name):
    return AnalyzerConfig(warp_size=WARP_SIZE,
                          emulate_locks=(name == "memcached"))


def _run(name, jobs, engine=None, warm=False):
    recorder = Recorder()
    analyzer = ThreadFuserAnalyzer(_config(name), jobs=jobs,
                                   recorder=recorder)
    traces = _traces(name, engine=engine)
    dcfgs = analyzer.prepare(traces)
    if warm:
        # A first replay over the same DCFGs leaves the arena and the
        # DCFGs resident in the workers for the measured call.
        ThreadFuserAnalyzer(_config(name), jobs=jobs).analyze(
            traces, dcfgs=dcfgs)
    report = analyzer.analyze(traces, dcfgs=dcfgs)
    telemetry = recorder.telemetry()
    return pickle.dumps(report), dict(telemetry.counters), telemetry.gauges


@functools.lru_cache(maxsize=None)
def _oracle(name, engine=None):
    recorder = Recorder()
    report = oracle_analyze(_traces(name, engine=engine), _config(name),
                            recorder)
    return pickle.dumps(report), dict(recorder.telemetry().counters)


class TestSubstrateParityMatrix:
    @pytest.mark.parametrize("jobs", [1, 2, 4, 8])
    @pytest.mark.parametrize("memo", [True, False],
                             ids=["memo", "nomemo"])
    @pytest.mark.parametrize("name", ["vectoradd", "memcached"])
    def test_shared_equals_fork_equals_serial(self, name, memo, jobs):
        """The shared pool and its serial fallback both equal the oracle.

        The per-call fork pool that once sat between the shared pool
        and serial replay is gone: a pool whose workers cannot attach
        the arena now falls back to serial replay, so that fallback is
        the middle leg.  With ``memo`` the shared leg is a warm call,
        over DCFGs it has already replayed; with ``nomemo`` it is the
        first.  Workers keep no memo across calls, and these warps are
        all distinct, so neither call hits the memo.
        """
        reference, ref_counters = _oracle(name)
        report, counters, gauges = _run(name, jobs, warm=memo)
        assert report == reference, jobs
        assert counters == ref_counters, jobs
        if jobs > 1 and faults.active() is None:
            assert gauges["memo.warp_hits"] == 0

        plan = FaultPlan([FaultSpec(site="pool.attach", kind="raise",
                                    count=999)])
        pool_mod.shutdown()
        with faults.injected(plan):
            report, counters, gauges = _run(name, jobs)
        assert report == reference, jobs
        assert counters == ref_counters, jobs
        assert gauges.get("pool.fallback") == (1 if jobs > 1 else None)

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_engines_are_identical_on_the_shared_pool(self, engine):
        reference, ref_counters = _oracle("streamcluster", engine=engine)
        report, counters, _ = _run("streamcluster", 4, engine=engine)
        assert report == reference
        assert counters == ref_counters

    @pytest.mark.usefixtures("quiet_faults")
    def test_warm_calls_reuse_workers_and_memo(self):
        pool_mod.shutdown()
        traces = _traces("vectoradd")
        analyzer = ThreadFuserAnalyzer(_config("vectoradd"), jobs=2)
        first = analyzer.analyze(traces)
        second = analyzer.analyze(traces)
        assert pickle.dumps(first) == pickle.dumps(second)
        stats = pool_mod.stats_snapshot()
        assert stats["spawned"] == 2
        assert stats["reused_batches"] >= 1
        # The arena was built once and reused across both calls.
        assert stats["arenas"] == 1
        pool_mod.release_arena(traces)


# -- session integration and the zero-leak guarantee ---------------------


class TestSessionIntegration:
    def test_trace_many_shared_matches_serial(self, tmp_path):
        names = ["vectoradd", "nbody"]
        serial = AnalysisSession(jobs=1)
        expected = {
            name: serialize_traces(traces)
            for name, traces in serial.trace_many(
                names, n_threads=N_THREADS).items()
        }
        # A fresh run outside any session writes the same bytes.
        for name in names:
            fresh, _machine = trace_instance(
                get_workload(name).instantiate(N_THREADS))
            assert serialize_traces(fresh) == expected[name]
        with AnalysisSession(jobs=2) as session:
            traced = session.trace_many(names, n_threads=N_THREADS)
            for name in names:
                assert serialize_traces(traced[name]) == expected[name]

    def test_pool_substrate_is_not_in_fingerprints(self, tmp_path):
        cache = str(tmp_path / "cache")
        pooled = AnalysisSession(cache_dir=cache, jobs=2)
        first = pooled.analyze("vectoradd", n_threads=N_THREADS)
        serial = AnalysisSession(cache_dir=cache, jobs=1)
        second = serial.analyze("vectoradd", n_threads=N_THREADS)
        assert (artifacts._canonical_pickle(first)
                == artifacts._canonical_pickle(second))
        # The serial session served everything from the pool run's cache.
        assert serial.executions == 0
        pooled.close()
        serial.close()

    def test_session_close_releases_all_arenas(self):
        if faults.active() is not None:
            pytest.skip("injected shm faults defer unlinks by design")
        pool_mod.shutdown()
        before = _shm_segments()
        session = AnalysisSession(jobs=4)
        report = session.analyze("vectoradd", n_threads=N_THREADS)
        assert report is not None
        session.close()
        assert pool_mod.live_arenas() == []
        assert pool_mod.leaked_segments() == []
        assert _shm_segments() == before
        session.close()  # idempotent



# -- fallback visibility --------------------------------------------------


class TestFallbackVisibility:
    def test_serial_fallback_is_gauged_and_warned(self):
        plan = FaultPlan([FaultSpec(site="pool.spawn", kind="raise",
                                    count=999)])
        pool_mod.shutdown()
        pool_mod._WARNED.discard("replay-serial-fallback")
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(_config("vectoradd"), jobs=2,
                                       recorder=recorder)
        with faults.injected(plan):
            with pytest.warns(RuntimeWarning, match="serial"):
                report = analyzer.analyze(_traces("vectoradd"))
        gauges = recorder.telemetry().gauges
        assert gauges["pool.fallback"] == 1
        assert gauges["faults.replay_fallbacks"] == 1
        serial = ThreadFuserAnalyzer(_config("vectoradd"), jobs=1)
        assert pickle.dumps(report) == pickle.dumps(
            serial.analyze(_traces("vectoradd")))

    def test_attach_fault_cascades_to_fork_bit_identically(self):
        """An attach fault cascades to the next substrate bit-identically.

        The per-call fork pool this cascade used to reach is gone: a
        pool whose workers cannot attach the arena now falls back to
        serial replay, gauged and byte-identical to the oracle.
        """
        plan = FaultPlan([FaultSpec(site="pool.attach", kind="raise",
                                    count=999)])
        pool_mod.shutdown()
        recorder = Recorder()
        analyzer = ThreadFuserAnalyzer(_config("vectoradd"), jobs=2,
                                       recorder=recorder)
        with faults.injected(plan):
            report = analyzer.analyze(_traces("vectoradd"))
        gauges = recorder.telemetry().gauges
        assert gauges["pool.fallback"] == 1
        assert gauges["faults.replay_fallbacks"] == 1
        assert pickle.dumps(report) == _oracle("vectoradd")[0]

    @pytest.mark.usefixtures("quiet_faults")
    def test_pool_gauges_ride_in_session_telemetry(self):
        session = AnalysisSession(jobs=2, recorder=Recorder())
        session.analyze("vectoradd", n_threads=N_THREADS)
        gauges = session.telemetry().gauges
        assert gauges["pool.workers"] >= 1
        assert gauges["pool.batches"] >= 1
        assert "pool.arena_bytes" in gauges
        assert "pool.attach_s" in gauges
        session.close()


# -- observability / CLI surface -----------------------------------------


@pytest.mark.usefixtures("quiet_faults")
class TestProbeInfo:
    def test_probe_reports_reuse_and_attach_stats(self):
        pool_mod.shutdown()
        info = pool_mod.probe_info(jobs=2)
        assert info["shm_supported"] is True
        assert info["spawned"] == 2
        assert info["batches"] == 2
        assert info["reused_batches"] >= 1
        assert info["attaches"] >= 1
        assert info["arenas"] == 0  # the probe arena was released
        assert len(info["ping_pids"]) == 2

    def test_no_probe_is_passive(self):
        pool_mod.shutdown()
        info = pool_mod.probe_info(probe=False)
        assert "ping_pids" not in info
        assert "spawned" not in info  # no pool was spun up
        assert info["arenas"] == 0
