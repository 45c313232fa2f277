"""Unit tests for the MIMD machine: semantics, ABI, sync, I/O, scheduling."""

import pytest

from repro.isa import Imm, Mem, Op, Reg
from repro.machine import (
    DeadlockError,
    InstructionLimitError,
    Machine,
    MachineError,
    Memory,
    SEG_HEAP,
    SEG_STACK,
    STACK_BASE,
    segment_of,
    stack_top,
)
from repro.program import ProgramBuilder

from util import build_call_program, build_lock_program


def _run1(program, fn, args, **kw):
    m = Machine(program, **kw)
    m.spawn(fn, args)
    m.run()
    return m.threads[0].retval


class TestMemoryModel:
    def test_load_of_untouched_memory_is_zero(self):
        mem = Memory()
        assert mem.load(0x1234_0000) == 0

    def test_store_load_roundtrip(self):
        mem = Memory()
        mem.store(0x1000_0000, 42)
        assert mem.load(0x1000_0000) == 42

    def test_negative_address_rejected(self):
        mem = Memory()
        with pytest.raises(MachineError):
            mem.load(-8)
        with pytest.raises(MachineError):
            mem.store(-8, 1)

    def test_bulk_write_read(self):
        mem = Memory()
        mem.write_words(0x1000_0000, [1, 2, 3])
        assert mem.read_words(0x1000_0000, 3) == [1, 2, 3]

    def test_segment_classification(self):
        assert segment_of(0x1000_0000) == SEG_HEAP
        assert segment_of(STACK_BASE) == SEG_STACK
        assert segment_of(stack_top(0) - 8) == SEG_STACK

    def test_stack_tops_disjoint_per_thread(self):
        assert stack_top(0) != stack_top(1)
        assert stack_top(1) - stack_top(0) == stack_top(2) - stack_top(1)


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        (Op.ADD, 3, 4, 7),
        (Op.SUB, 3, 4, -1),
        (Op.IMUL, 3, 4, 12),
        (Op.IDIV, 7, 2, 3),
        (Op.IDIV, -7, 2, -3),     # C-style truncation toward zero
        (Op.IMOD, 7, 3, 1),
        (Op.IMOD, -7, 3, -1),     # C-style remainder sign
        (Op.AND, 0b1100, 0b1010, 0b1000),
        (Op.OR, 0b1100, 0b1010, 0b1110),
        (Op.XOR, 0b1100, 0b1010, 0b0110),
        (Op.SHL, 1, 4, 16),
        (Op.SHR, 16, 2, 4),
        (Op.IMIN, 3, 4, 3),
        (Op.IMAX, 3, 4, 4),
    ])
    def test_integer_ops(self, op, a, b, expected):
        b_ = ProgramBuilder()
        with b_.function("f", args=["x", "y"]) as f:
            r = f.reg()
            f.emit(op, r, f.a(0), f.a(1))
            f.ret(r)
        assert _run1(b_.build(), "f", [a, b]) == expected

    def test_division_by_zero_raises(self):
        b = ProgramBuilder()
        with b.function("f", args=["x"]) as f:
            r = f.reg()
            f.div(r, f.a(0), 0)
            f.ret(r)
        with pytest.raises(MachineError):
            _run1(b.build(), "f", [1])

    def test_float_ops(self):
        b = ProgramBuilder()
        with b.function("f", args=["x"]) as f:
            r = f.reg()
            f.emit(Op.CVTIF, r, f.a(0))
            f.emit(Op.FMUL, r, r, 2.5)
            f.emit(Op.FADD, r, r, 0.5)
            f.emit(Op.CVTFI, r, r)
            f.ret(r)
        assert _run1(b.build(), "f", [4]) == 10  # 4*2.5+0.5 = 10.5 -> 10

    def test_fsqrt_of_negative_is_zero(self):
        b = ProgramBuilder()
        with b.function("f", args=[]) as f:
            r = f.reg()
            f.emit(Op.FSQRT, r, -4.0)
            f.emit(Op.CVTFI, r, r)
            f.ret(r)
        assert _run1(b.build(), "f", []) == 0

    def test_lea_computes_address_without_access(self):
        b = ProgramBuilder()
        with b.function("f", args=["x"]) as f:
            r = f.reg()
            f.lea(r, Mem(f.a(0), disp=16, index=f.a(0), scale=2))
            f.ret(r)
        assert _run1(b.build(), "f", [10]) == 10 + 16 + 20


class TestMemoryOperands:
    def test_cisc_add_with_memory_source(self):
        b = ProgramBuilder()
        data = b.data("d", 8)
        with b.function("f", args=[]) as f:
            r = f.reg()
            f.mov(r, 5)
            f.emit(Op.ADD, r, r, Mem(None, disp=data.value))
            f.ret(r)
        m = Machine(b.build())
        m.memory.store(data.value, 37)
        m.spawn("f", [])
        m.run()
        assert m.threads[0].retval == 42

    def test_store_to_memory_destination(self):
        b = ProgramBuilder()
        data = b.data("d", 8)
        with b.function("f", args=["v"]) as f:
            f.store(Mem(None, disp=data.value), f.a(0))
            f.ret(0)
        m = Machine(b.build())
        m.spawn("f", [99])
        m.run()
        assert m.memory.load(data.value) == 99

    def test_indexed_addressing(self):
        b = ProgramBuilder()
        data = b.data("d", 8 * 10)
        with b.function("f", args=["i"]) as f:
            r = f.reg()
            f.load(r, Mem(None, disp=data.value, index=f.a(0), scale=8))
            f.ret(r)
        m = Machine(b.build())
        m.memory.write_words(data.value, [10, 11, 12, 13])
        m.spawn("f", [3])
        m.run()
        assert m.threads[0].retval == 13


class TestCallsAndFrames:
    def test_call_abi_roundtrip(self):
        program = build_call_program()
        assert _run1(program, "worker", [6]) == 72

    def test_recursion(self):
        b = ProgramBuilder()
        with b.function("fact", args=["n"]) as f:
            r = f.reg()
            t = f.reg()

            def base():
                f.mov(r, 1)

            def rec():
                f.sub(t, f.a(0), 1)
                f.call(r, "fact", [t])
                f.mul(r, r, f.a(0))

            f.if_else(f.a(0), "<=", 1, base, rec)
            f.ret(r)
        assert _run1(b.build(), "fact", [6]) == 720

    def test_callee_frames_do_not_clobber_caller_locals(self):
        b = ProgramBuilder()
        with b.function("callee", args=[]) as f:
            off = f.stack_alloc(8)
            f.store(f.stack_slot(off), 1234)
            f.ret(0)
        with b.function("caller", args=[]) as f:
            off = f.stack_alloc(8)
            v = f.reg()
            f.store(f.stack_slot(off), 42)
            f.call(None, "callee", [])
            f.load(v, f.stack_slot(off))
            f.ret(v)
        assert _run1(b.build(), "caller", []) == 42

    def test_wrong_arity_spawn_rejected(self):
        program = build_call_program()
        m = Machine(program)
        with pytest.raises(MachineError):
            m.spawn("worker", [1, 2])

    def test_wrong_arity_call_rejected(self):
        b = ProgramBuilder()
        with b.function("g", args=["x", "y"]) as f:
            f.ret(0)
        with b.function("f", args=[]) as f:
            r = f.reg()
            f.call(r, "g", [1])
            f.ret(r)
        with pytest.raises(MachineError):
            _run1(b.build(), "f", [])


class TestSynchronization:
    def test_contended_counter_is_exact(self):
        program, lock_addr, counter = build_lock_program(shared_lock=True)
        m = Machine(program, quantum=3)
        for t in range(16):
            m.spawn("worker", [t])
        m.run()
        assert m.memory.load(counter) == 16
        assert m.memory.load(lock_addr) == 0  # released

    def test_fine_grained_locks_no_contention(self):
        program, _lock_area, counter = build_lock_program(shared_lock=False)
        m = Machine(program, quantum=3)
        for t in range(8):
            m.spawn("worker", [t])
        m.run()
        for t in range(8):
            assert m.memory.load(counter + 8 * t) == 1

    def test_unlock_without_hold_raises(self):
        b = ProgramBuilder()
        lk = b.data("lk", 8)
        with b.function("f", args=[]) as f:
            f.unlock(lk)
            f.ret(0)
        with pytest.raises(MachineError):
            _run1(b.build(), "f", [])

    def test_self_deadlock_detected(self):
        b = ProgramBuilder()
        lk = b.data("lk", 8)
        with b.function("f", args=[]) as f:
            f.lock(lk)
            f.lock(lk)  # re-acquire own non-reentrant lock
            f.ret(0)
        with pytest.raises(DeadlockError):
            _run1(b.build(), "f", [])

    def test_barrier_releases_all_threads(self):
        b = ProgramBuilder()
        flags = b.data("flags", 8 * 8)
        with b.function("f", args=["tid"]) as f:
            a = f.reg()
            f.mul(a, f.a(0), 8)
            f.add(a, a, flags.value)
            f.store(Mem(a), 1)
            f.barrier(0)
            # After the barrier every thread's flag must be visible.
            total = f.reg()
            i = f.reg()
            v = f.reg()
            f.mov(total, 0)

            def body():
                f.load(v, Mem(i, disp=flags.value, scale=1))
                f.add(total, total, v)

            f.for_range(i, 0, 8 * 4, body, step=8)
            f.ret(total)
        m = Machine(b.build(), quantum=2)
        for t in range(4):
            m.spawn("f", [t])
        m.run()
        assert all(t.retval == 4 for t in m.threads)

    def test_atomic_add_returns_old_value(self):
        b = ProgramBuilder()
        ctr = b.data("ctr", 8)
        with b.function("f", args=[]) as f:
            old = f.reg()
            f.atomic_add(old, Mem(None, disp=ctr.value), 5)
            f.ret(old)
        m = Machine(b.build())
        m.memory.store(ctr.value, 7)
        m.spawn("f", [])
        m.run()
        assert m.threads[0].retval == 7
        assert m.memory.load(ctr.value) == 12

    def test_xchg_swaps(self):
        b = ProgramBuilder()
        d = b.data("d", 8)
        with b.function("f", args=["v"]) as f:
            r = f.reg()
            f.mov(r, f.a(0))
            f.emit(Op.XCHG, r, Mem(None, disp=d.value))
            f.ret(r)
        m = Machine(b.build())
        m.memory.store(d.value, 111)
        m.spawn("f", [222])
        m.run()
        assert m.threads[0].retval == 111
        assert m.memory.load(d.value) == 222


class TestIOAndLimits:
    def test_io_roundtrip(self):
        b = ProgramBuilder()
        with b.function("f", args=[]) as f:
            v = f.reg()
            f.io_read(v)
            f.add(v, v, 1)
            f.io_write(v)
            f.ret(v)
        m = Machine(b.build())
        m.spawn("f", [], io_in=[41])
        m.run()
        assert m.threads[0].io_out == [42]

    def test_io_read_exhausted_returns_zero(self):
        b = ProgramBuilder()
        with b.function("f", args=[]) as f:
            v = f.reg()
            f.io_read(v)
            f.ret(v)
        assert _run1(b.build(), "f", []) == 0

    def test_instruction_limit_enforced(self):
        b = ProgramBuilder()
        with b.function("f", args=[]) as f:
            i = f.reg()
            f.mov(i, 0)
            f.while_(lambda: (i, ">=", 0), lambda: f.add(i, i, 1))
            f.ret(0)
        with pytest.raises(InstructionLimitError):
            _run1(b.build(), "f", [], max_instructions=10_000)

    def test_unlinked_program_rejected(self):
        from repro.program import Program
        with pytest.raises(MachineError):
            Machine(Program())

    def test_determinism_across_runs(self):
        program, _lock, counter = build_lock_program(shared_lock=True)

        def trail():
            m = Machine(program, quantum=5)
            for t in range(6):
                m.spawn("worker", [t])
            m.run()
            return [t.retval for t in m.threads]

        assert trail() == trail()


class TestBlockKernels:
    """The compiled engine's generated kernels (repro.machine.compiled)."""

    def test_inline_templates_are_the_semantics_lambda_bodies(self):
        """An operator is inlined only where its template is exactly the
        ``repro.isa.semantics`` lambda body."""
        import ast
        import inspect

        from repro.isa import semantics
        from repro.machine import compiled

        tree = ast.parse(inspect.getsource(semantics))
        bodies = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(value, ast.Lambda):
                        params = [a.arg for a in value.args.args]
                        bodies.setdefault(key.attr, []).append(
                            (params, ast.unparse(value.body)))
            if isinstance(node, ast.FunctionDef) and node.name == "compare":
                ret = node.body[-1]
                bodies["compare"] = [([a.arg for a in node.args.args],
                                      ast.unparse(ret.value))]
        inlined = [(op.name, template)
                   for table in (compiled.INLINE_BINARY,
                                 compiled.INLINE_UNARY,
                                 compiled.INLINE_TEST)
                   for op, template in table.items()]
        inlined.append(("compare", compiled.INLINE_COMPARE))
        for name, template in inlined:
            (params, body), = bodies[name]
            assert ast.unparse(ast.parse(template.format(*params))) == body, \
                name

    def test_program_values_never_reach_the_source(self):
        """Immediates and displacements are bound, not spliced."""
        from repro.machine import compiled

        b = ProgramBuilder()
        cell = b.data("cell", 8)
        with b.function("worker", args=["x"]) as f:
            r = f.reg()
            f.add(r, f.a(0), 987654321)
            f.store(Mem(None, disp=cell.value + 8 * 4321), r)
            f.ret(r)
        program = b.build()
        block = program.functions["worker"].entry
        shapes, env = compiled._describe_block(program, block)
        source = compiled._kernel_source(True, 0, shapes)
        assert "987654321" not in source
        assert str(cell.value + 8 * 4321) not in source
        assert 987654321 in env.values()
        assert _run1(program, "worker", [1]) == 987654322

    def test_programs_from_different_seeds_share_kernel_code(self):
        from repro.workloads import get_workload, run_instance

        workload = get_workload("vectoradd")
        machines = [run_instance(workload.instantiate(8, seed=seed),
                                 quantum=100_000) for seed in (1, 2)]
        codes, globals_ = [], []
        for machine in machines:
            table = machine.program.compiled_cache["native"]
            kernels = [k for entry in table.values() for k in entry.full
                       if k is not None]
            codes.append({k.__code__ for k in kernels})
            globals_.append({id(k.__globals__) for k in kernels})
        assert codes[0] == codes[1]
        assert not globals_[0] & globals_[1]

    def test_link_drops_the_bound_kernels(self):
        program = build_call_program()
        machine = Machine(program)
        machine.spawn("worker", [1])
        machine.run()
        assert program.compiled_cache
        stats = machine.engine_stats()
        assert stats["compiled"] == 1
        assert stats["handlers"] >= stats["blocks"] > 0
        program.link()
        assert program.compiled_cache == {}

    def test_budget_and_limit_clip_a_block(self):
        """One kernel per step: a quantum of 3 runs a 7-instruction block
        in three ranges; the instruction limit cuts the last one short."""
        b = ProgramBuilder()
        with b.function("worker", args=["x"]) as f:
            r = f.reg()
            for _ in range(6):
                f.add(r, r, f.a(0))
            f.ret(r)
        program = b.build()
        machine = Machine(program, quantum=3)
        machine.spawn("worker", [2])
        machine.run()
        assert machine.threads[0].retval == 12
        entry, = program.compiled_cache["native"].values()
        assert sorted(entry.part) == [(0, 3), (3, 6)]
        assert [k is not None for k in entry.full] == [
            False, False, False, False, False, False, True]

        limited = Machine(program, quantum=3, max_instructions=4)
        limited.spawn("worker", [2])
        with pytest.raises(InstructionLimitError):
            limited.run()
        thread = limited.threads[0]
        assert limited.total_instructions == 5
        assert (thread.idx, thread.instructions_executed) == (5, 5)
