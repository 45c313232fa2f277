"""Differential fuzzing: random programs, three executors, one answer.

For every randomly generated structured program we require:

1. **Result equality** -- the MIMD machine (round-robin interleaving) and
   the lock-step GPU oracle compute identical per-thread outputs;
2. **Metric equality** -- the trace-driven analyzer's prediction equals
   the oracle's direct measurement exactly (efficiency, issues,
   transactions, divergence events);
3. **Conservation** -- the replay accounts for every traced instruction;
4. **Oracle parity** -- the production analyzer's pickled report is
   byte-identical to the reference oracle's (tuple replayer, serial, no
   memo), so random divergence shapes -- spans on both sides of the
   span replayer's ``MIN_SPAN`` -- are covered beyond the fixed
   catalog families;
5. **Engine parity** -- the compiled engine's block-range kernels and
   the reference interpreter record byte-identical trace files and
   equal machine counters at quanta 1, 3 and 64, so kernels of ranges
   clipped at every offset of a block are fuzzed too; also with
   excluded helpers, nested roots and O0 stack traffic, where traced
   kernels' inline recording hands over to the tracer's hooks;
6. **Warp-trace parity** -- the warp-trace generator on the MIMD trace
   and the oracle's nvbit-style capture write byte-identical kernel
   trace files.

Programs draw from nested if/else, counted loops with data-dependent trip
counts, helper calls, and loads/stores over shared input / private output
arrays -- the full divergence vocabulary, minus locks and I/O (which the
oracle intentionally rejects).
"""

import io
import pickle

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core import AnalyzerConfig, analyze_traces
from repro.gpuref import LockstepGPU
from repro.isa import Mem, Op
from repro.machine import Machine
from repro.program import ProgramBuilder
from repro.optlevels import apply_opt_level
from repro.tracer import PackedTrace, TraceRecorder
from repro.tracegen import (
    generate_kernel_trace,
    generate_oracle_kernel_trace,
    save_kernel_trace,
)
from repro.tracer.io import save_traces

from util import oracle_analyze

IN_SIZE = 64
N_THREADS = 8

_ARITH = [Op.ADD, Op.SUB, Op.IMUL, Op.AND, Op.OR, Op.XOR, Op.IMIN, Op.IMAX]
_CMPS = ["==", "!=", "<", "<=", ">", ">="]


@st.composite
def program_specs(draw):
    """A nested statement-spec tree for one random worker function."""

    def stmts(depth):
        n = draw(st.integers(min_value=1, max_value=4))
        out = []
        for _ in range(n):
            kinds = ["arith", "load"]
            if depth > 0:
                kinds += ["if", "ifelse", "for", "call"]
            kind = draw(st.sampled_from(kinds))
            if kind == "arith":
                out.append(("arith",
                            draw(st.integers(0, len(_ARITH) - 1)),
                            draw(st.integers(0, 5)),
                            draw(st.integers(0, 5)),
                            draw(st.integers(-7, 7))))
            elif kind == "load":
                out.append(("load", draw(st.integers(0, 5)),
                            draw(st.integers(0, 5))))
            elif kind == "if":
                out.append(("if", draw(st.integers(0, 5)),
                            draw(st.sampled_from(_CMPS)),
                            draw(st.integers(-3, 3)),
                            stmts(depth - 1)))
            elif kind == "ifelse":
                out.append(("ifelse", draw(st.integers(0, 5)),
                            draw(st.sampled_from(_CMPS)),
                            draw(st.integers(-3, 3)),
                            stmts(depth - 1), stmts(depth - 1)))
            elif kind == "for":
                out.append(("for", draw(st.integers(0, 5)),
                            draw(st.integers(1, 4)),
                            draw(st.booleans()),
                            stmts(depth - 1)))
            else:
                out.append(("call", draw(st.integers(0, 5)),
                            draw(st.integers(0, 1))))
        return out

    helper_bodies = [
        [("arith", draw(st.integers(0, len(_ARITH) - 1)), 0, 0,
          draw(st.integers(1, 5)))],
        stmts(0),
    ]
    return helper_bodies, stmts(2)


def _build(spec):
    helper_bodies, worker_stmts = spec
    b = ProgramBuilder()
    d_in = b.data("fuzz_in", 8 * IN_SIZE)
    d_out = b.data("fuzz_out", 8 * N_THREADS)

    def emit_stmts(f, regs, statements):
        for stmt in statements:
            kind = stmt[0]
            if kind == "arith":
                _k, op_i, dst, src, imm = stmt
                f.emit(_ARITH[op_i], regs[dst], regs[src], imm)
                # Keep magnitudes bounded so IMUL chains stay cheap.
                f.emit(Op.IMOD, regs[dst], regs[dst], 100003)
            elif kind == "load":
                _k, dst, src = stmt
                idx = f.reg()
                f.emit(Op.IMOD, idx, regs[src], IN_SIZE)
                f.emit(Op.IMAX, idx, idx, 0)
                f.load(regs[dst], Mem(None, disp=d_in.value, index=idx,
                                      scale=8))
            elif kind == "if":
                _k, reg_i, cmp_op, rhs, body = stmt
                f.if_then(regs[reg_i], cmp_op, rhs,
                          lambda b_=body: emit_stmts(f, regs, b_))
            elif kind == "ifelse":
                _k, reg_i, cmp_op, rhs, then_b, else_b = stmt
                f.if_else(regs[reg_i], cmp_op, rhs,
                          lambda b_=then_b: emit_stmts(f, regs, b_),
                          lambda b_=else_b: emit_stmts(f, regs, b_))
            elif kind == "for":
                _k, reg_i, bound, dynamic, body = stmt
                counter = f.reg()
                if dynamic:
                    stop = f.reg()
                    f.emit(Op.IMOD, stop, regs[reg_i], bound + 1)
                    f.emit(Op.IMAX, stop, stop, 0)
                else:
                    stop = bound
                f.for_range(counter, 0, stop,
                            lambda b_=body: emit_stmts(f, regs, b_))
            elif kind == "call":
                _k, dst, helper_i = stmt
                f.call(regs[dst], f"helper{helper_i}", [regs[dst]])

    for i, body in enumerate(helper_bodies):
        with b.function(f"helper{i}", args=["x"]) as f:
            regs = [f.reg() for _ in range(6)]
            for j, reg in enumerate(regs):
                f.emit(Op.ADD, reg, f.a(0), j)
            emit_stmts(f, regs, body)
            f.ret(regs[0])

    with b.function("worker", args=["tid"]) as f:
        regs = [f.reg() for _ in range(6)]
        for j, reg in enumerate(regs):
            f.emit(Op.IMUL, reg, f.a(0), j + 1)
        emit_stmts(f, regs, worker_stmts)
        acc = f.reg()
        f.mov(acc, 0)
        for reg in regs:
            f.emit(Op.XOR, acc, acc, reg)
        f.store(Mem(None, disp=d_out.value, index=f.a(0), scale=8), acc)
        f.ret(acc)

    return b.build(), d_in.value, d_out.value


_INPUT = [(37 * i * i + 11 * i + 5) % 1009 for i in range(IN_SIZE)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program_specs())
def test_three_executors_agree(spec):
    program, in_addr, out_addr = _build(spec)

    # Executor 1: the MIMD machine under the tracer.
    recorder = TraceRecorder(roots=["worker"], program=program)
    machine = Machine(program, hooks=recorder, max_instructions=2_000_000)
    machine.memory.write_words(in_addr, _INPUT)
    for t in range(N_THREADS):
        machine.spawn("worker", [t])
    machine.run()
    mimd_out = machine.memory.read_words(out_addr, N_THREADS)

    # Executor 2: the trace-driven analyzer (prediction).
    traces = recorder.traces
    predicted = analyze_traces(traces, warp_size=N_THREADS)
    assert (predicted.metrics.thread_instructions
            == traces.total_instructions)
    oracle = oracle_analyze(traces, AnalyzerConfig(warp_size=N_THREADS))
    assert pickle.dumps(predicted) == pickle.dumps(oracle)

    # Executor 3: the lock-step oracle (direct SIMT execution).
    gpu = LockstepGPU(program, warp_size=N_THREADS)
    gpu.memory.write_words(in_addr, _INPUT)
    measured = gpu.run_kernel("worker", [[t] for t in range(N_THREADS)])
    simt_out = gpu.memory.read_words(out_addr, N_THREADS)

    # 1. results agree across execution models
    assert simt_out == mimd_out
    # 2. prediction equals measurement, counter for counter
    assert predicted.metrics.issues == measured.metrics.issues
    assert (predicted.metrics.thread_instructions
            == measured.metrics.thread_instructions)
    assert predicted.simt_efficiency == pytest.approx(
        measured.simt_efficiency)
    assert predicted.heap_transactions == measured.heap_transactions
    assert (predicted.metrics.divergence_events
            == measured.metrics.divergence_events)


@seed(7)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program_specs())
def test_both_warp_trace_generators_agree(spec):
    """The third leg on random programs: identical warp traces.

    ``generate_kernel_trace`` on the MIMD trace of the as-written (O1)
    program and ``generate_oracle_kernel_trace`` on the lock-step oracle
    must write byte-identical kernel trace files, so every timing the
    simulator reports from them is equal too.
    """
    program, in_addr, _out_addr = _build(spec)
    recorder = TraceRecorder(roots=["worker"], program=program)
    machine = Machine(program, hooks=recorder, max_instructions=2_000_000)
    machine.memory.write_words(in_addr, _INPUT)
    for t in range(N_THREADS):
        machine.spawn("worker", [t])
    machine.run()
    texts = []
    for kernel in (
            generate_kernel_trace(recorder.traces, program,
                                  warp_size=N_THREADS, name="cuda:worker"),
            generate_oracle_kernel_trace(
                program, "worker", [[t] for t in range(N_THREADS)],
                setup=lambda gpu: gpu.memory.write_words(in_addr, _INPUT),
                warp_size=N_THREADS)):
        out = io.StringIO()
        save_kernel_trace(kernel, out)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program_specs())
def test_opt_levels_preserve_random_programs(spec):
    """O0-O3 compile arbitrary program shapes without changing results."""
    from repro.optlevels import OPT_LEVELS, apply_opt_level

    program, in_addr, out_addr = _build(spec)
    expected = None
    for level in OPT_LEVELS:
        compiled = apply_opt_level(program, level)
        machine = Machine(compiled, max_instructions=4_000_000)
        machine.memory.write_words(in_addr, _INPUT)
        for t in range(N_THREADS):
            machine.spawn("worker", [t])
        machine.run()
        out = machine.memory.read_words(out_addr, N_THREADS)
        if expected is None:
            expected = out
        assert out == expected, level


def _run_engine(program, in_addr, out_addr, engine, quantum):
    recorder = TraceRecorder(roots=["worker"], program=program)
    machine = Machine(program, hooks=recorder, quantum=quantum,
                      max_instructions=2_000_000, engine=engine)
    machine.memory.write_words(in_addr, _INPUT)
    for t in range(N_THREADS):
        machine.spawn("worker", [t])
    machine.run()
    saved = io.BytesIO()
    save_traces(recorder.traces, saved)
    return {
        "trace_file": saved.getvalue(),
        "total_instructions": machine.total_instructions,
        "mem_events": machine.mem_events,
        "executed": [t.instructions_executed for t in machine.threads],
        "threads": [(t.block.label, t.idx, t.state, t.retval)
                    for t in machine.threads],
        "out": machine.memory.read_words(out_addr, N_THREADS),
    }


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program_specs(), st.sampled_from([1, 3, 64]))
def test_engines_agree_on_random_programs(spec, quantum):
    """Kernels of every clipped range match the interpreter."""
    program, in_addr, out_addr = _build(spec)
    interp = _run_engine(program, in_addr, out_addr, "interp", quantum)
    compiled = _run_engine(program, in_addr, out_addr, "compiled", quantum)
    assert compiled == interp


#: The columns a trace derives from its pristine ones.
_DERIVED = ("cumn", "mcnt", "bext", "msegf", "msegl")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program_specs(),
       st.sets(st.sampled_from(["helper0", "helper1"])),
       st.sampled_from([["worker"], ["helper1"], ["worker", "helper1"]]),
       st.sampled_from(["O1", "O0"]),
       st.sampled_from([1, 3, 64]))
def test_engines_agree_with_exclusion_nested_roots_and_stack_traffic(
        spec, exclude, roots, level, quantum):
    """Both engines record the same bytes when traces open inside calls,
    excluded helpers suspend recording, and O0 spills to the stack (so
    stack addresses are rebased); each fresh trace's derived columns
    equal the ones its saved columns rebuild."""
    program, in_addr, out_addr = _build(spec)
    program = apply_opt_level(program, level)
    runs = {}
    for engine in ("interp", "compiled"):
        recorder = TraceRecorder(roots=roots, exclude=exclude,
                                 program=program)
        machine = Machine(program, hooks=recorder, quantum=quantum,
                          max_instructions=2_000_000, engine=engine)
        machine.memory.write_words(in_addr, _INPUT)
        for t in range(N_THREADS):
            machine.spawn("worker", [t])
        machine.run()
        saved = io.BytesIO()
        save_traces(recorder.traces, saved)
        runs[engine] = {
            "trace_file": saved.getvalue(),
            "total_instructions": machine.total_instructions,
            "mem_events": machine.mem_events,
            "executed": [t.instructions_executed for t in machine.threads],
            "threads": [(t.block.label, t.idx, t.state, t.retval)
                        for t in machine.threads],
            "out": machine.memory.read_words(out_addr, N_THREADS),
        }
        for trace in recorder.traces:
            packed = trace.packed()
            rebuilt = PackedTrace.from_columns(
                packed.column_bytes(), packed.n_tokens, len(packed.mslot),
                packed.names)
            for attr in _DERIVED:
                assert getattr(packed, attr) == getattr(rebuilt, attr), attr
    assert runs["compiled"] == runs["interp"]
