"""Edge-case tests for the MIMD machine and tracer interaction."""

import pytest

from repro.isa import Mem, Op
from repro.machine import (
    DeadlockError, InstructionLimitError, Machine, MachineError, NullHooks,
)
from repro.program import ProgramBuilder
from repro.tracer import TOK_BLOCK, TOK_LOCK, TraceRecorder

from util import run_traced


class TestSchedulingEdge:
    def test_quantum_one_interleaves_finely(self):
        b = ProgramBuilder()
        d = b.data("order", 8 * 64)
        idx = b.data("idx", 8)
        with b.function("worker", args=["tid"]) as f:
            i = f.reg()
            slot = f.reg()

            def body():
                f.atomic_add(slot, Mem(None, disp=idx.value), 1)
                f.store(Mem(None, disp=d.value, index=slot, scale=8),
                        f.a(0))

            f.for_range(i, 0, 4, body)
            f.ret(0)
        program = b.build()
        machine = Machine(program, quantum=1)
        machine.spawn("worker", [1])
        machine.spawn("worker", [2])
        machine.run()
        order = machine.memory.read_words(d.value, 8)
        # With quantum=1 the two threads interleave rather than running
        # back-to-back.
        assert order.count(1) == 4 and order.count(2) == 4
        assert order != [1, 1, 1, 1, 2, 2, 2, 2]

    def test_large_quantum_runs_thread_to_stall(self):
        b = ProgramBuilder()
        with b.function("worker", args=["tid"]) as f:
            i = f.reg()
            f.for_range(i, 0, 10, f.nop)
            f.ret(0)
        program = b.build()
        machine = Machine(program, quantum=10_000)
        machine.spawn("worker", [0])
        machine.spawn("worker", [1])
        machine.run()
        assert all(t.state == "done" for t in machine.threads)

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("quantum", [0, -1, 2.5])
    def test_quantum_must_be_a_positive_int(self, engine, quantum):
        # Construction refuses it: run() would spin forever on 0 or -1,
        # and the compiled engine cannot slice a block by 2.5.
        b = ProgramBuilder()
        with b.function("worker", args=["tid"]) as f:
            f.ret(0)
        with pytest.raises(MachineError, match="quantum"):
            Machine(b.build(), quantum=quantum, engine=engine)


class TestLockEdge:
    def test_two_lock_deadlock_detected(self):
        b = ProgramBuilder()
        la = b.data("la", 8)
        lb = b.data("lb", 8)
        with b.function("ab", args=[]) as f:
            f.lock(la)
            f.barrier(0)  # both threads hold their first lock
            f.lock(lb)
            f.unlock(lb)
            f.unlock(la)
            f.ret(0)
        with b.function("ba", args=[]) as f:
            f.lock(lb)
            f.barrier(0)
            f.lock(la)
            f.unlock(la)
            f.unlock(lb)
            f.ret(0)
        program = b.build()
        machine = Machine(program)
        machine.spawn("ab", [])
        machine.spawn("ba", [])
        with pytest.raises(DeadlockError):
            machine.run()

    def test_lock_handoff_across_many_threads(self):
        b = ProgramBuilder()
        lk = b.data("lk", 8)
        token = b.data("token", 8)
        with b.function("worker", args=["tid"]) as f:
            v = f.reg()
            f.lock(lk)
            f.load(v, Mem(None, disp=token.value))
            f.add(v, v, 1)
            f.store(Mem(None, disp=token.value), v)
            f.unlock(lk)
            f.ret(v)
        program = b.build()
        machine = Machine(program, quantum=2)
        for t in range(20):
            machine.spawn("worker", [t])
        machine.run()
        # Every thread saw a unique token value: perfect mutual exclusion.
        values = sorted(t.retval for t in machine.threads)
        assert values == list(range(1, 21))

    def test_lock_addr_from_register(self):
        b = ProgramBuilder()
        locks = b.data("locks", 8 * 4)
        with b.function("worker", args=["which"]) as f:
            a = f.reg()
            f.mul(a, f.a(0), 8)
            f.add(a, a, locks.value)
            f.lock(a)
            f.unlock(a)
            f.ret(0)
        program = b.build()
        traces, _m = run_traced(
            program, [("worker", [t % 4], None) for t in range(8)],
            ["worker"],
        )
        lock_addrs = {
            tok[1] for tr in traces for tok in tr.tokens
            if tok[0] == TOK_LOCK
        }
        assert len(lock_addrs) == 4


class TestTracerEdge:
    def test_root_called_from_another_root(self):
        """A nested call to a root function is a plain call, not a new
        logical thread."""
        b = ProgramBuilder()
        with b.function("handle", args=["depth"]) as f:
            r = f.reg()
            f.mov(r, f.a(0))

            def recurse():
                t = f.reg()
                f.sub(t, f.a(0), 1)
                f.call(r, "handle", [t])

            f.if_then(f.a(0), ">", 0, recurse)
            f.ret(r)
        program = b.build()
        traces, _m = run_traced(
            program, [("handle", [3], None)], ["handle"]
        )
        assert len(traces) == 1  # one logical thread despite recursion

    def test_multiple_roots_in_one_program(self):
        b = ProgramBuilder()
        with b.function("get", args=["k"]) as f:
            f.ret(f.a(0))
        with b.function("put", args=["k"]) as f:
            r = f.reg()
            f.mul(r, f.a(0), 2)
            f.ret(r)
        with b.function("server", args=["n"]) as f:
            i = f.reg()
            r = f.reg()
            m = f.reg()

            def body():
                f.mod(m, i, 2)
                f.if_else(m, "==", 0,
                          lambda: f.call(r, "get", [i]),
                          lambda: f.call(r, "put", [i]))

            f.for_range(i, 0, f.a(0), body)
            f.ret(0)
        program = b.build()
        traces, _m = run_traced(
            program, [("server", [6], None)], ["get", "put"]
        )
        assert len(traces) == 6
        assert {t.root for t in traces} == {"get", "put"}
        # Warp formation keeps roots separate.
        from repro.core import form_warps

        warps = form_warps(traces, warp_size=4)
        for warp in warps:
            assert len({t.root for t in warp}) == 1

    def test_trace_block_counts_sum_to_machine_count(self):
        from util import build_call_program

        program = build_call_program()
        recorder = TraceRecorder(roots=["worker"], program=program)
        machine = Machine(program, hooks=recorder)
        for t in range(4):
            machine.spawn("worker", [t])
        machine.run()
        traced = sum(t.n_instructions for t in recorder.traces)
        executed = sum(t.instructions_executed for t in machine.threads)
        assert traced == executed

    def test_unclosed_trace_flushes_on_thread_end(self):
        b = ProgramBuilder()
        with b.function("worker", args=[]) as f:
            f.nop()
            f.halt()
        program = b.build()
        traces, _m = run_traced(program, [("worker", [], None)], ["worker"])
        assert traces.threads[0].closed
        assert traces.threads[0].n_instructions == 2

    def test_compiled_engine_rejects_hooks_without_live(self):
        """Traced kernels append memory rows through the hooks' ``live``
        map and call no ``on_mem``: hooks without the map would lose
        their memory events, so only the interpreter runs them."""
        from util import build_lock_program

        class MemCounter(NullHooks):
            def __init__(self):
                self.mems = 0

            def on_mem(self, tid, slot, is_store, addr, size):
                self.mems += 1

        program, _lock, _counter = build_lock_program()
        with pytest.raises(MachineError, match="engine='interp'"):
            Machine(program, hooks=MemCounter(), engine="compiled")
        hooks = MemCounter()
        machine = Machine(program, hooks=hooks, engine="interp")
        for t in range(4):
            machine.spawn("worker", [t])
        machine.run()
        assert hooks.mems == machine.mem_events > 0


class TestProgramValidationEdge:
    def test_empty_function_rejected_at_link(self):
        from repro.program import Function, Program

        program = Program()
        program.add_function(Function("empty", 0))
        with pytest.raises(ValueError):
            program.link()

    def test_write_to_immediate_rejected(self):
        from repro.program import Program
        from repro.program.ir import BasicBlock, Function, Instruction
        from repro.isa import Imm, Reg

        program = Program()
        fn = Function("bad", 0)
        block = BasicBlock("entry")
        block.append(Instruction(Op.MOV, (Imm(1), Imm(2))))
        block.append(Instruction(Op.RET, ()))
        fn.add_block(block)
        program.add_function(fn)
        program.link()
        machine = Machine(program)
        machine.spawn("bad", [])
        with pytest.raises(MachineError):
            machine.run()


# ----------------------------------------------------------------------
# The two engines must also agree on a run that fails: same exception,
# same counters, same thread state, same recorded columns.

def _wrong_arity_call():
    """A CALL with one argument, read from memory, to a 2-arg callee."""
    b = ProgramBuilder()
    cell = b.data("cell", 8)
    with b.function("callee", args=["x", "y"]) as f:
        f.ret(f.a(0))
    with b.function("worker", args=["tid"]) as f:
        r = f.reg()
        f.add(r, f.a(0), 1)
        f.call(r, "callee", [Mem(None, disp=cell.value)])
        f.ret(r)
    return b.build(), 2, {}


def _idiv_by_zero():
    """IDIV by a loaded zero, after two loads in the same block."""
    b = ProgramBuilder()
    src = b.data("src", 16)
    with b.function("worker", args=["tid"]) as f:
        x, y, q = f.reg(), f.reg(), f.reg()
        f.load(x, Mem(None, disp=src.value))
        f.load(y, Mem(None, disp=src.value + 8))
        f.emit(Op.IDIV, q, x, y)
        f.add(q, q, 1)
        f.ret(q)
    return b.build(), 3, {}


def _negative_store():
    """A store to a negative address right after an ALU instruction."""
    b = ProgramBuilder()
    with b.function("worker", args=["tid"]) as f:
        r = f.reg()
        f.sub(r, f.a(0), 100)
        f.store(Mem(r, disp=0), f.a(0))
        f.add(r, r, 1)
        f.ret(r)
    return b.build(), 2, {}


def _mov_to_immediate():
    """MOV whose destination is an immediate (memory source first)."""
    from repro.isa import Imm

    b = ProgramBuilder()
    cell = b.data("cell", 8)
    with b.function("worker", args=["tid"]) as f:
        r = f.reg()
        f.add(r, f.a(0), 2)
        f.emit(Op.MOV, Imm(5), Mem(None, disp=cell.value))
        f.ret(r)
    return b.build(), 2, {}


def _address_below_int64():
    """A store to an address below -2**63, which no column can hold."""
    b = ProgramBuilder()
    with b.function("worker", args=["tid"]) as f:
        r = f.reg()
        f.mov(r, -(2 ** 63) - 64)
        f.add(r, r, f.a(0))
        f.store(Mem(r, disp=0), f.a(0))
        f.ret(r)
    return b.build(), 2, {}


def _negative_rmw(op):
    """An XCHG or AADD on a negative address, after a recorded load."""
    def case():
        b = ProgramBuilder()
        cell = b.data("cell", 8)
        with b.function("worker", args=["tid"]) as f:
            r, v = f.reg(), f.reg()
            f.load(v, Mem(None, disp=cell.value))
            f.sub(r, f.a(0), 100)
            addend = (f.a(0),) if op is Op.AADD else ()
            f.emit(op, v, Mem(r, disp=0), *addend)
            f.ret(v)
        return b.build(), 2, {}
    return case


def _limit_mid_block(quantum):
    """``max_instructions`` crossed in the middle of a loop body."""
    def case():
        b = ProgramBuilder()
        out = b.data("out", 8 * 8)
        with b.function("worker", args=["tid"]) as f:
            i, acc = f.reg(), f.reg()
            f.mov(acc, 0)

            def body():
                f.add(acc, acc, i)
                f.xor(acc, acc, 3)
                f.store(Mem(None, disp=out.value, index=f.a(0), scale=8),
                        acc)
                f.add(acc, acc, f.a(0))

            f.for_range(i, 0, 50, body)
            f.ret(acc)
        return b.build(), 3, {"max_instructions": 97, "quantum": quantum}
    return case


_FAILING = {
    "wrong_arity_call": _wrong_arity_call,
    "idiv_by_zero": _idiv_by_zero,
    "negative_store": _negative_store,
    "mov_to_immediate": _mov_to_immediate,
    "limit_mid_block_q64": _limit_mid_block(64),
    "limit_mid_block_q1": _limit_mid_block(1),
    "address_below_int64": _address_below_int64,
    "xchg_negative_address": _negative_rmw(Op.XCHG),
    "aadd_negative_address": _negative_rmw(Op.AADD),
}

#: The error of each case that is not a ``MachineError``: the recorder
#: cannot encode the address.
_RAISES = {"address_below_int64": OverflowError}


def _failed_run(case, engine):
    program, n_threads, machine_kwargs = _FAILING[case]()
    recorder = TraceRecorder(roots=["worker"], program=program)
    machine = Machine(program, hooks=recorder, engine=engine,
                      **machine_kwargs)
    for tid in range(n_threads):
        machine.spawn("worker", [tid])
    with pytest.raises(_RAISES.get(case, MachineError)) as info:
        machine.run()
    columns = []
    for trace in recorder.traces.threads:
        c = trace.columns
        columns.append((
            trace.cpu_tid, trace.root, trace.closed, dict(trace.skipped),
            [list(col) for col in c.columns()],
            list(c.names),
        ))
    return {
        "error": (type(info.value), str(info.value)),
        "total_instructions": machine.total_instructions,
        "mem_events": machine.mem_events,
        "threads": [(t.block.label, t.idx, t.instructions_executed, t.state)
                    for t in machine.threads],
        "columns": columns,
    }


class TestEnginesAgreeOnFailure:
    @pytest.mark.parametrize("case", sorted(_FAILING))
    def test_failed_run_matches_interpreter(self, case):
        interp = _failed_run(case, "interp")
        compiled = _failed_run(case, "compiled")
        assert compiled == interp

    def test_wrong_arity_call_reads_its_argument_first(self):
        run = _failed_run("wrong_arity_call", "compiled")
        assert run["error"][1] == "call to callee with 1 args, expects 2"
        assert run["mem_events"] == 1
        assert sum(len(c[4][4]) for c in run["columns"]) == 1

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_address_below_int64_overflows(self, engine):
        run = _failed_run("address_below_int64", engine)
        assert run["error"][0] is OverflowError
        assert run["mem_events"] == 1

    @pytest.mark.parametrize("case", ["limit_mid_block_q64",
                                      "limit_mid_block_q1"])
    def test_limit_lands_mid_block(self, case):
        run = _failed_run(case, "interp")
        assert run["error"] == (InstructionLimitError,
                                "exceeded 97 instructions")
        assert run["total_instructions"] == 98
        # The thread that crossed the limit stopped inside a block.
        assert any(0 < idx for _label, idx, _n, _s in run["threads"])


@pytest.mark.parametrize("traced", [True, False])
@pytest.mark.parametrize("quantum", [1, 2, 64])
def test_final_thread_state_matches_interpreter(quantum, traced):
    """HALT and a top-level RET leave ``idx`` on their own slot."""
    b = ProgramBuilder()
    with b.function("halter", args=["x"]) as f:
        r = f.reg()
        f.add(r, f.a(0), 1)
        f.mul(r, r, 3)
        f.halt()
    with b.function("worker", args=["x"]) as f:
        r = f.reg()
        f.add(r, f.a(0), 2)
        f.xor(r, r, 5)
        f.ret(r)
    program = b.build()

    def final(engine):
        recorder = TraceRecorder(roots=["halter", "worker"],
                                 program=program) if traced else None
        machine = Machine(program, hooks=recorder, engine=engine,
                          quantum=quantum)
        for tid in range(4):
            machine.spawn("halter" if tid % 2 else "worker", [tid])
        machine.run()
        return [(t.block.label, t.idx, t.instructions_executed, t.state,
                 t.retval) for t in machine.threads]

    assert final("compiled") == final("interp")


def _delegated_ops_program():
    """Every opcode the compiled engine runs through ``Machine._op_*``.

    ``worker`` (a root, also called from the untraced ``server``) runs
    LEA, XCHG on a heap cell and on a stack slot, AADD with and without
    a destination, NOP, IOREAD with input and with exhausted input, and
    IOWRITE; the root ``halter`` ends in HALT.
    """
    b = ProgramBuilder()
    cell = b.data("cell", 8)
    with b.function("worker", args=["tid"]) as f:
        a, v, w, x, y, i = (f.reg() for _ in range(6))
        off = f.stack_alloc(16)
        f.lea(a, Mem(f.sp, disp=off))
        f.store(Mem(a), f.a(0))
        f.mov(v, 7)

        def body():
            f.emit(Op.XCHG, v, Mem(None, disp=cell.value))
            f.emit(Op.XCHG, v, f.stack_slot(off))
            f.atomic_add(w, Mem(None, disp=cell.value), i)
            f.emit(Op.AADD, None, f.stack_slot(off + 8), v)
            f.nop()
            f.add(v, v, w)

        f.for_range(i, 0, 3, body)
        f.io_read(x)
        f.io_read(y)
        f.io_write(f.stack_slot(off + 8))
        f.io_write(v)
        f.add(x, x, y)
        f.ret(x)
    with b.function("halter", args=["tid"]) as f:
        r = f.reg()
        f.lea(r, Mem(None, disp=cell.value, index=f.a(0), scale=8))
        f.emit(Op.XCHG, r, Mem(None, disp=cell.value))
        f.nop()
        f.io_write(r)
        f.halt()
    with b.function("server", args=["tid"]) as f:
        r = f.reg()
        f.io_read(r)
        f.io_write(r)
        f.call(r, "worker", [f.a(0)])
        f.io_write(r)
        f.ret(r)
    return b.build()


@pytest.mark.parametrize("quantum", [1, 3, 64])
def test_delegated_ops_trace_identically(quantum):
    """The opcodes the compiled engine delegates record, count and
    leave thread state exactly as the interpreter does."""
    program = _delegated_ops_program()
    kinds = ("server", "worker", "halter")

    def run(engine):
        recorder = TraceRecorder(roots=["worker", "halter"],
                                 program=program)
        machine = Machine(program, hooks=recorder, engine=engine,
                          quantum=quantum)
        for tid in range(6):
            kind = kinds[tid % 3]
            # A worker's second IOREAD finds its input exhausted; a
            # server reads one more input before its worker call.
            io_in = ([tid + 100, tid + 200] if kind == "server"
                     else [tid + 200])
            machine.spawn(kind, [tid], io_in=io_in)
        machine.run()
        traces = recorder.traces
        return {
            "threads": [(t.packed().column_bytes(), list(t.skipped.items()))
                        for t in traces.threads],
            "untraced_skipped": dict(traces.untraced_skipped),
            "counts": (machine.total_instructions, machine.mem_events),
            "results": [(t.retval, t.io_out, t.instructions_executed,
                         t.state) for t in machine.threads],
        }

    interp = run("interp")
    assert run("compiled") == interp
    assert len(interp["threads"]) == 6
    # Two servers, each with three I/O operations outside ``worker``.
    assert interp["untraced_skipped"] == {"io": 2 * 3 * 60}
    assert all(state == "done" for *_r, state in interp["results"])
