"""Shared helpers for the test suite: tiny programs with known behaviour."""

from __future__ import annotations

from repro.core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from repro.core.dcfg import build_dcfgs
from repro.core.ipdom import compute_all_ipdoms
from repro.core.metrics import AggregateMetrics
from repro.core.replay import WarpReplayer
from repro.core.report import AnalysisReport
from repro.core.warp import form_warps
from repro.isa import Mem, Op
from repro.machine import Machine
from repro.obs import NULL_RECORDER
from repro.program import ProgramBuilder
from repro.tracer import TraceRecorder


def run_traced(program, spawns, roots, setup=None, exclude=(), **mkw):
    """Run ``program`` under the tracer; returns (traces, machine)."""
    recorder = TraceRecorder(roots=roots, exclude=exclude, workload="test",
                             program=program)
    machine = Machine(program, hooks=recorder, **mkw)
    if setup:
        setup(machine)
    for name, args, io_in in spawns:
        machine.spawn(name, args, io_in=io_in)
    machine.run()
    return recorder.traces, machine


def oracle_analyze(traces, config=None, recorder=None) -> AnalysisReport:
    """The reference analysis the production path must match byte for byte.

    Builds the DCFGs with the reference tuple scan (no dedupe), forms
    warps, and replays each one serially with the tuple
    :class:`~repro.core.replay.WarpReplayer` -- no packed columns, no
    memo, no pool.  The per-warp metrics merge in warp order, and the
    counters the analyzer exports (``prepare.functions`` plus the
    ``replay.*`` set) are recorded on ``recorder``.
    """
    config = config or AnalyzerConfig()
    obs = recorder if recorder is not None else NULL_RECORDER
    dcfgs = build_dcfgs(traces)
    compute_all_ipdoms(dcfgs)
    obs.count("prepare.functions", len(dcfgs.functions))
    aggregate = AggregateMetrics(config.warp_size)
    for warp in form_warps(traces, config.warp_size, config.batching):
        metrics = WarpReplayer(
            warp, dcfgs, config.warp_size,
            emulate_locks=config.emulate_locks,
            lock_reconvergence=config.lock_reconvergence,
        ).run()
        aggregate.merge(metrics, n_threads=len(warp))
    ThreadFuserAnalyzer(config, recorder=obs)._record_replay_counters(
        aggregate)
    return AnalysisReport(
        workload=traces.workload,
        metrics=aggregate,
        traced_fraction=traces.traced_fraction(),
        skipped_by_reason=traces.skipped_by_reason(),
    )


def legacy_record(token: tuple) -> list:
    """One token as a record of the v1/v2 JSON-lines trace format.

    Earlier releases wrote trace files this way and the loader still
    reads them (through ``PackedTrace.from_records``), so tests build
    legacy streams with it.
    """
    if token[0] == "B":
        kind, addr, nins, mems = token
        flat = [field for mem in mems
                for field in (mem[0], 1 if mem[1] else 0, mem[2], mem[3])]
        return [kind, addr, nins, flat]
    return list(token)


def build_diamond_program():
    """worker(tid): if tid odd -> add path, else -> mul path; then join."""
    b = ProgramBuilder()
    with b.function("worker", args=["tid"]) as f:
        acc = f.reg()
        t = f.reg()
        f.mov(acc, 10)
        f.mod(t, f.a(0), 2)
        f.if_else(
            t, "==", 1,
            lambda: f.add(acc, acc, 5),
            lambda: f.mul(acc, acc, 2),
        )
        f.add(acc, acc, 1)
        f.ret(acc)
    return b.build()


def build_loop_program():
    """worker(n): loop n times accumulating i."""
    b = ProgramBuilder()
    with b.function("worker", args=["n"]) as f:
        acc = f.reg()
        i = f.reg()
        f.mov(acc, 0)
        f.for_range(i, 0, f.a(0), lambda: f.add(acc, acc, i))
        f.ret(acc)
    return b.build()


def build_call_program():
    """worker(tid) calls square(tid) and doubles the result."""
    b = ProgramBuilder()
    with b.function("square", args=["x"]) as f:
        r = f.reg()
        f.mul(r, f.a(0), f.a(0))
        f.ret(r)
    with b.function("worker", args=["tid"]) as f:
        s = f.reg()
        f.call(s, "square", [f.a(0)])
        f.add(s, s, s)
        f.ret(s)
    return b.build()


def build_lock_program(shared_lock=True):
    """Workers increment a counter under a lock.

    ``shared_lock=True`` makes every thread use the same lock (contended);
    otherwise each thread locks its own lock word (fine-grained).
    """
    b = ProgramBuilder()
    lock_area = b.data("locks", 8 * 64)
    counter = b.data("counter", 8 * 64)
    with b.function("worker", args=["tid"]) as f:
        laddr = f.reg()
        caddr = f.reg()
        v = f.reg()
        if shared_lock:
            f.mov(laddr, lock_area.value)
        else:
            f.mul(laddr, f.a(0), 8)
            f.add(laddr, laddr, lock_area.value)
        f.mul(caddr, f.a(0), 0 if shared_lock else 8)
        f.add(caddr, caddr, counter.value)
        f.lock(laddr)
        f.load(v, Mem(caddr))
        f.add(v, v, 1)
        f.store(Mem(caddr), v)
        f.unlock(laddr)
        f.ret(v)
    return b.build(), lock_area.value, counter.value


#: Programs whose fresh traces must serialize to the committed bytes in
#: ``tests/data/fresh_<case>.v3.trace`` (written by the tuple recorder of
#: an earlier release): locks, calls and I/O skips; contended-lock spin
#: skips; an excluded callee's filtered skips.
FRESH_TRACE_CASES = ("dsb_post8", "spin_lock8", "filtered_call4")


def trace_fresh_case(case, engine):
    """Trace one of :data:`FRESH_TRACE_CASES` on machine ``engine``."""
    if case == "dsb_post8":
        from repro.workloads import get_workload, trace_instance

        instance = get_workload("dsb_post").instantiate(8, seed=7)
        traces, _machine = trace_instance(instance, engine=engine)
    elif case == "spin_lock8":
        program, _lock, _counter = build_lock_program(shared_lock=True)
        traces, _machine = run_traced(
            program, [("worker", [t], None) for t in range(8)],
            ["worker"], quantum=2, spin_cost=10, engine=engine)
    elif case == "filtered_call4":
        traces, _machine = run_traced(
            build_call_program(), [("worker", [t], None) for t in range(4)],
            ["worker"], exclude=["square"], engine=engine)
    else:
        raise KeyError(case)
    return traces
