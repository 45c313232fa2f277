"""Unit tests for warp-trace generation: RISC decomposition, streams, I/O."""

import io

import pytest

from repro.isa import Imm, Mem, Op, Reg, classes
from repro.program.ir import Instruction
from repro.tracegen import (
    SPACE_GLOBAL,
    SPACE_LOCAL,
    KernelTrace,
    WarpInstruction,
    decompose,
    generate_kernel_trace,
    load_kernel_trace,
    micro_op_count,
    save_kernel_trace,
    space_of,
)
from repro.machine.memory import STACK_BASE, HEAP_BASE

from util import build_diamond_program, build_loop_program, run_traced


class TestRiscDecomposition:
    def test_plain_alu_one_micro_op(self):
        instr = Instruction(Op.ADD, (Reg(1), Reg(2), Imm(3)))
        assert decompose(instr) == [classes.INT_ALU]

    def test_load_mov(self):
        instr = Instruction(Op.MOV, (Reg(1), Mem(Reg(2))))
        assert decompose(instr) == [classes.LOAD]

    def test_store_mov(self):
        instr = Instruction(Op.MOV, (Mem(Reg(2)), Reg(1)))
        assert decompose(instr) == [classes.STORE]

    def test_cisc_alu_with_mem_source(self):
        instr = Instruction(Op.ADD, (Reg(1), Reg(1), Mem(Reg(2))))
        assert decompose(instr) == [classes.LOAD, classes.INT_ALU]

    def test_rmw_memory_destination(self):
        instr = Instruction(Op.ADD, (Mem(Reg(2)), Reg(1), Imm(1)))
        ops = decompose(instr)
        assert ops[0] == classes.LOAD
        assert ops[-1] == classes.STORE

    def test_atomic_is_load_op_store(self):
        instr = Instruction(Op.AADD, (Reg(1), Mem(Reg(2)), Imm(1)))
        assert decompose(instr) == [
            classes.LOAD, classes.INT_ALU, classes.STORE
        ]

    def test_lea_is_not_memory(self):
        instr = Instruction(Op.LEA, (Reg(1), Mem(Reg(2), disp=8)))
        assert decompose(instr) == [classes.INT_ALU]

    def test_micro_op_count(self):
        instr = Instruction(Op.ADD, (Reg(1), Reg(1), Mem(Reg(2))))
        assert micro_op_count(instr) == 2

    def test_every_opcode_decomposes(self):
        for op in Op:
            operands = (Reg(1), Reg(2), Reg(3))[: 3]
            instr = Instruction(op, operands)
            assert len(decompose(instr)) >= 1


class TestSpaceMapping:
    def test_stack_maps_to_local(self):
        assert space_of(STACK_BASE + 100) == SPACE_LOCAL

    def test_heap_maps_to_global(self):
        assert space_of(HEAP_BASE + 100) == SPACE_GLOBAL


class TestKernelTrace:
    def _kernel(self):
        program = build_diamond_program()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(8)], ["worker"]
        )
        return generate_kernel_trace(traces, program, warp_size=4), traces

    def test_generated_efficiency_matches_analyzer(self):
        from repro.core import analyze_traces

        kernel, traces = self._kernel()
        report = analyze_traces(traces, warp_size=4)
        # The kernel's micro-op efficiency differs from the CISC-level
        # metric only via per-instruction expansion factors; for this
        # uniform-expansion workload they must agree closely.
        assert kernel.simt_efficiency() == pytest.approx(
            report.simt_efficiency, abs=0.05
        )

    def test_thread_instruction_conservation_in_micro_ops(self):
        kernel, traces = self._kernel()
        # Every traced CISC instruction expands to >= 1 micro-op.
        assert kernel.total_thread_instructions >= traces.total_instructions

    def test_memory_micro_ops_carry_lane_addresses(self):
        kernel, _traces = self._kernel()
        mem_ops = [
            i for w in kernel.warps for i in w if i.is_memory()
        ]
        # The diamond workload is register-only; build one with memory.
        program = build_loop_program()
        traces, _m = run_traced(program, [("worker", [4], None)], ["worker"])
        kernel2 = generate_kernel_trace(traces, program, warp_size=1)
        assert kernel2.total_issues > 0

    def test_active_masks_subset_of_warp(self):
        kernel, _traces = self._kernel()
        for warp in kernel.warps:
            full = (1 << warp.n_threads) - 1
            for instr in warp:
                assert instr.mask != 0
                assert instr.mask & ~full == 0

    def test_serialization_roundtrip(self):
        kernel, _traces = self._kernel()
        buf = io.StringIO()
        save_kernel_trace(kernel, buf)
        buf.seek(0)
        loaded = load_kernel_trace(buf)
        assert loaded.name == kernel.name
        assert loaded.warp_size == kernel.warp_size
        assert len(loaded.warps) == len(kernel.warps)
        for a, b in zip(kernel.warps, loaded.warps):
            assert len(a) == len(b)
            for ia, ib in zip(a, b):
                assert ia.pc == ib.pc
                assert ia.op_class == ib.op_class
                assert ia.mask == ib.mask
                assert ia.space == ib.space
                assert (ia.accesses or []) == (ib.accesses or [])


class TestWarpInstruction:
    def test_active_lane_count(self):
        instr = WarpInstruction(0x1000, classes.INT_ALU, 0b1011)
        assert instr.active_lanes == 3

    def test_memory_flag(self):
        mem = WarpInstruction(0x1000, classes.LOAD, 1, space=SPACE_GLOBAL,
                              accesses=[(64, 8)])
        alu = WarpInstruction(0x1000, classes.INT_ALU, 1)
        assert mem.is_memory()
        assert not alu.is_memory()


class TestWriterEdgeCases:
    def test_memory_instruction_without_accesses_roundtrips(self):
        import io as _io

        from repro.tracegen import (
            KernelTrace,
            WarpInstruction,
            load_kernel_trace,
            save_kernel_trace,
        )

        kernel = KernelTrace("edge", 32)
        stream = kernel.new_warp(4)
        stream.append(WarpInstruction(0x400000, classes.LOAD, 0b1111,
                                      space=SPACE_GLOBAL, accesses=[]))
        buf = _io.StringIO()
        save_kernel_trace(kernel, buf)
        buf.seek(0)
        loaded = load_kernel_trace(buf)
        instr = loaded.warps[0].instructions[0]
        assert instr.space == SPACE_GLOBAL
        assert (instr.accesses or []) == []

    def test_kernel_name_with_spaces_roundtrips(self):
        import io as _io

        from repro.tracegen import (
            KernelTrace,
            load_kernel_trace,
            save_kernel_trace,
        )

        kernel = KernelTrace("my kernel v2", 8)
        kernel.new_warp(8)
        buf = _io.StringIO()
        save_kernel_trace(kernel, buf)
        buf.seek(0)
        assert load_kernel_trace(buf).name == "my kernel v2"

    def test_empty_kernel_efficiency_is_one(self):
        from repro.tracegen import KernelTrace

        kernel = KernelTrace("empty", 32)
        assert kernel.simt_efficiency() == 1.0
        assert kernel.total_issues == 0


class TestCorruptKernelTraces:
    """Truncated/garbled kernel trace files fail typed, never with a
    raw IndexError/ValueError traceback."""

    def _text(self):
        from repro.tracegen import (
            KernelTrace,
            WarpInstruction,
            save_kernel_trace,
        )

        kernel = KernelTrace("k", 4)
        stream = kernel.new_warp(4)
        stream.append(WarpInstruction(0x400000, classes.LOAD, 0b1111,
                                      space=SPACE_GLOBAL, accesses=[(64, 8)]))
        buf = io.StringIO()
        save_kernel_trace(kernel, buf)
        return buf.getvalue()

    def test_truncated_header_raises_typed_error(self):
        from repro.errors import TraceCorruptError
        from repro.tracegen import load_kernel_trace

        text = self._text()
        with pytest.raises(TraceCorruptError) as excinfo:
            load_kernel_trace(io.StringIO(text[:10]))
        assert excinfo.value.site == "trace.load"
        assert excinfo.value.hint

    def test_garbled_instruction_line_raises_typed_error(self):
        from repro.errors import TraceCorruptError
        from repro.tracegen import load_kernel_trace

        text = self._text().replace("0x00400000", "not-a-pc")
        with pytest.raises(TraceCorruptError, match="malformed"):
            load_kernel_trace(io.StringIO(text))

    def test_instruction_before_warp_header_raises(self):
        from repro.errors import TraceCorruptError
        from repro.tracegen import load_kernel_trace

        lines = self._text().splitlines()
        del lines[3]  # drop the '#warp ...' line
        with pytest.raises(TraceCorruptError):
            load_kernel_trace(io.StringIO("\n".join(lines) + "\n"))

    def test_warp_count_differing_from_header_raises(self):
        from repro.errors import TraceCorruptError
        from repro.tracegen import (
            KernelTrace,
            WarpInstruction,
            load_kernel_trace,
            save_kernel_trace,
        )

        kernel = KernelTrace("k", 4)
        for _ in range(2):
            kernel.new_warp(4).append(
                WarpInstruction(0x400000, classes.INT_ALU, 0b1111))
        buf = io.StringIO()
        save_kernel_trace(kernel, buf)
        text = buf.getvalue()
        # Cut at the second warp's header: whole lines, one warp short.
        cut = text[:text.index("#warp 1")]
        with pytest.raises(TraceCorruptError) as excinfo:
            load_kernel_trace(io.StringIO(cut))
        assert excinfo.value.site == "trace.load"
        assert "2 warps" in str(excinfo.value)
        extra = text.replace("-num warps = 2", "-num warps = 1")
        with pytest.raises(TraceCorruptError):
            load_kernel_trace(io.StringIO(extra))
        assert len(load_kernel_trace(io.StringIO(text)).warps) == 2

    def test_empty_file_raises_typed_error(self):
        from repro.errors import TraceCorruptError
        from repro.tracegen import load_kernel_trace

        with pytest.raises(TraceCorruptError):
            load_kernel_trace(io.StringIO(""))
