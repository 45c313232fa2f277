"""Detailed unit tests for GPU simulator internals and the CPU model."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.cpusim import CPUConfig, CPUSimulator
from repro.isa import classes
from repro.simulator import (
    CacheConfig,
    GPUConfig,
    GPUSimulator,
    rtx3070,
)
from repro.tracegen import (
    SPACE_GLOBAL,
    SPACE_LOCAL,
    KernelTrace,
    WarpInstruction,
)

from util import build_loop_program, run_traced

FULL = (1 << 32) - 1


def _kernel(per_warp, n_warps=1, warp_size=32):
    kernel = KernelTrace("k", warp_size)
    for w in range(n_warps):
        stream = kernel.new_warp(warp_size)
        for instr in per_warp(w):
            stream.append(instr)
    return kernel


def _alu(n):
    return [WarpInstruction(0x400000 + 4 * i, classes.INT_ALU, FULL)
            for i in range(n)]


class TestSchedulers:
    def _mem_kernel(self, n_warps):
        def per_warp(w):
            out = []
            for i in range(64):
                if i % 8 == 0:
                    accesses = [(0x1000_0000 + w * 0x8000 + i * 64
                                 + lane * 8, 8) for lane in range(32)]
                    out.append(WarpInstruction(0x400000, classes.LOAD,
                                               FULL, space=SPACE_GLOBAL,
                                               accesses=accesses))
                else:
                    out.append(WarpInstruction(0x400000, classes.INT_ALU,
                                               FULL))
            return out

        return _kernel(per_warp, n_warps=n_warps)

    def test_gto_and_lrr_complete_same_work(self):
        for scheduler in ("gto", "lrr"):
            config = rtx3070()
            config.scheduler = scheduler
            stats = GPUSimulator(config).run(self._mem_kernel(8))
            assert stats.instructions == 8 * 64

    def test_schedulers_differ_in_cycles(self):
        gto = rtx3070()
        lrr = rtx3070()
        lrr.scheduler = "lrr"
        a = GPUSimulator(gto).run(self._mem_kernel(8))
        b = GPUSimulator(lrr).run(self._mem_kernel(8))
        assert a.cycles != b.cycles  # policies genuinely differ

    def test_deterministic(self):
        config = rtx3070()
        a = GPUSimulator(config).run(self._mem_kernel(4))
        b = GPUSimulator(rtx3070()).run(self._mem_kernel(4))
        assert a.cycles == b.cycles
        assert a.l1_misses == b.l1_misses


def _mixed_stream(w):
    """Warp ``w``'s micro-ops: ALU runs cut by every way a GTO issue run ends.

    A multiply (latency 2) and global and local loads stall the warp;
    stores and latency-1 ops keep it ready.  Masks and lengths vary
    per warp, so warps finish at different cycles, and odd warps end on
    a load instead of an ALU op.
    """
    base = 0x1000_0000 + w * 0x2000
    narrow = 0xFFFF << (4 * (w % 4))
    out = []
    for i in range(10 + 3 * w):
        pc = 0x400000 + 4 * (i % 16)
        mask = narrow if i % 7 == 3 else FULL
        lanes = [lane for lane in range(32) if mask >> lane & 1]
        kind = i % 8
        if kind == 1:
            out.append(WarpInstruction(pc, classes.STORE, mask,
                                       space=SPACE_GLOBAL, accesses=[
                                           (base + 32 * i + 4 * lane, 4)
                                           for lane in lanes]))
        elif kind == 3:
            out.append(WarpInstruction(pc, classes.INT_MUL, mask))
        elif kind == 4:
            out.append(WarpInstruction(pc, classes.STORE, mask,
                                       space=SPACE_LOCAL, accesses=[
                                           (0x7000_0000 + lane * 0x1000, 8)
                                           for lane in lanes]))
        elif kind == 5:
            # Strided: one sector per lane, some shared across warps.
            out.append(WarpInstruction(pc, classes.LOAD, mask,
                                       space=SPACE_GLOBAL, accesses=[
                                           (0x2000_0000 + 64 * lane
                                            + 16 * (i % 3), 8)
                                           for lane in lanes]))
        elif kind == 7:
            out.append(WarpInstruction(pc, classes.LOAD, mask,
                                       space=SPACE_LOCAL, accesses=[
                                           (0x7000_0000 + lane * 0x1000, 8)
                                           for lane in lanes]))
        else:
            out.append(WarpInstruction(pc, classes.INT_ALU, mask))
    if w % 2:
        out.append(WarpInstruction(0x400100, classes.LOAD, FULL,
                                   space=SPACE_GLOBAL,
                                   accesses=[(base + 8 * lane, 8)
                                             for lane in range(32)]))
    return out


class TestSchedulerPins:
    """Every ``GPUStats`` field under both schedulers, pinned exactly.

    Nine warps in blocks of two on two SMs that hold three warps each,
    so both SMs refill from their pending lists; small caches make
    the run hit and miss at every level.
    """

    #: ``(scheduler, replicate)`` -> every ``GPUStats`` field in
    #: declaration order.
    PINNED = {
        ("gto", 1): (1368, 202, 6016, 100, 1227, 528, 699, 150, 549,
                     17568, 2190),
        ("gto", 3): (4167, 606, 18048, 300, 3681, 1370, 2311, 457, 1854,
                     59328, 7033),
        ("lrr", 1): (1351, 202, 6016, 100, 1227, 528, 699, 158, 541,
                     17312, 2183),
        ("lrr", 3): (4165, 606, 18048, 300, 3681, 1382, 2299, 442, 1857,
                     59424, 7033),
    }

    @staticmethod
    def _config(scheduler):
        return GPUConfig(num_sms=2, max_warps_per_sm=3, warps_per_block=2,
                         scheduler=scheduler,
                         l1=CacheConfig(4096, 4, hit_latency=4),
                         l2=CacheConfig(8192, 4, hit_latency=20),
                         dram_latency=60, dram_bytes_per_cycle=16.0)

    @pytest.mark.parametrize("replicate", [1, 3])
    @pytest.mark.parametrize("scheduler", ["gto", "lrr"])
    def test_pinned_stats(self, scheduler, replicate):
        kernel = _kernel(_mixed_stream, n_warps=9)
        stats = GPUSimulator(self._config(scheduler)).run(
            kernel, replicate=replicate)
        assert (dataclasses.astuple(stats)
                == self.PINNED[scheduler, replicate])


def _run_with_timeout(code):
    """Run ``code`` in a fresh interpreter; a hang fails, not blocks."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    tests = os.path.dirname(__file__)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, tests, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


class TestEmptyWarps:
    def test_warp_with_no_micro_ops_does_not_hang(self):
        # Such a warp used to become resident and never retire, so the
        # SM loop never ended.  It must not occupy an SM at all: placed
        # first or last, the results equal those of the one-op warp
        # alone.
        code = (
            "import dataclasses\n"
            "from repro.isa import classes\n"
            "from repro.simulator import GPUSimulator, rtx3070\n"
            "from repro.tracegen import KernelTrace, WarpInstruction\n"
            "def kernel(order):\n"
            "    k = KernelTrace('k', 32)\n"
            "    for part in order:\n"
            "        stream = k.new_warp(32)\n"
            "        if part == 'op':\n"
            "            stream.append(WarpInstruction(\n"
            "                0x400000, classes.INT_ALU, 1))\n"
            "    return k\n"
            "for order in (['op'], ['op', 'empty'], ['empty', 'op']):\n"
            "    stats = GPUSimulator(rtx3070()).run(kernel(order),\n"
            "                                        replicate=2)\n"
            "    print(dataclasses.astuple(stats))\n"
        )
        result = _run_with_timeout(code)
        assert result.returncode == 0, result.stderr[-2000:]
        lines = result.stdout.splitlines()
        assert len(lines) == 3
        # Two replicas of one single-lane op each.
        assert lines[0].startswith("(2, 2, 2, 0,")
        assert lines[1] == lines[0]
        assert lines[2] == lines[0]


class TestPlacementAndOccupancy:
    def test_blocks_spread_across_sms(self):
        # 2 blocks of 8 warps on a 2-SM machine: both SMs get work, and
        # the span is far below serial execution of 16 warps on one SM.
        config = GPUConfig(num_sms=2, warps_per_block=8)
        kernel = _kernel(lambda w: _alu(100), n_warps=16)
        stats = GPUSimulator(config).run(kernel)
        assert stats.instructions == 1600
        assert stats.cycles == pytest.approx(800, rel=0.05)

    def test_max_warps_per_sm_respected(self):
        # 16 warps, 1 SM, max 4 resident: still completes all work.
        config = GPUConfig(num_sms=1, max_warps_per_sm=4,
                           warps_per_block=16)
        kernel = _kernel(lambda w: _alu(10), n_warps=16)
        stats = GPUSimulator(config).run(kernel)
        assert stats.instructions == 160

    def test_replication_offsets_defeat_fake_sharing(self):
        def per_warp(w):
            accesses = [(0x1000_0000 + lane * 8, 8) for lane in range(32)]
            return [WarpInstruction(0x400000, classes.LOAD, FULL,
                                    space=SPACE_GLOBAL, accesses=accesses)]

        kernel = _kernel(per_warp, n_warps=1)
        stats = GPUSimulator(rtx3070()).run(kernel, replicate=4)
        # Each replica's window misses independently in L2.
        assert stats.l2_misses == 4 * 8


class TestDramModel:
    def test_bandwidth_shared_across_active_sms(self):
        def per_warp(w):
            out = []
            for i in range(32):
                accesses = [(0x1000_0000 + w * 0x100000 + i * 1024
                             + lane * 256, 8) for lane in range(32)]
                out.append(WarpInstruction(0x400000, classes.LOAD, FULL,
                                           space=SPACE_GLOBAL,
                                           accesses=accesses))
            return out

        config = GPUConfig(num_sms=4, warps_per_block=1,
                           dram_bytes_per_cycle=8.0)
        lone = GPUSimulator(config).run(_kernel(per_warp, n_warps=1))
        many_config = GPUConfig(num_sms=4, warps_per_block=1,
                                dram_bytes_per_cycle=8.0)
        many = GPUSimulator(many_config).run(_kernel(per_warp, n_warps=4))
        # 4 SMs streaming share the bandwidth: per-SM time grows.
        assert many.cycles > lone.cycles

    def test_dram_bytes_counted(self):
        def per_warp(w):
            accesses = [(0x2000_0000 + lane * 32, 8) for lane in range(32)]
            return [WarpInstruction(0x400000, classes.LOAD, FULL,
                                    space=SPACE_GLOBAL, accesses=accesses)]

        stats = GPUSimulator(rtx3070()).run(_kernel(per_warp))
        assert stats.dram_bytes == 32 * 32


class TestLatencyClasses:
    @pytest.mark.parametrize("op_class,heavier", [
        (classes.INT_DIV, classes.INT_ALU),
        (classes.SFU, classes.FP_ALU),
    ])
    def test_expensive_classes_cost_more(self, op_class, heavier):
        def heavy(w):
            return [WarpInstruction(0x400000, op_class, FULL)
                    for _ in range(64)]

        def light(w):
            return [WarpInstruction(0x400000, heavier, FULL)
                    for _ in range(64)]

        config = GPUConfig(num_sms=1)
        slow = GPUSimulator(config).run(_kernel(heavy))
        fast = GPUSimulator(GPUConfig(num_sms=1)).run(_kernel(light))
        assert slow.cycles > fast.cycles

    def test_stats_seconds_uses_clock(self):
        stats = GPUSimulator(GPUConfig(num_sms=1)).run(
            _kernel(lambda w: _alu(100)))
        assert stats.seconds(1.0) == pytest.approx(stats.cycles / 1e9)
        assert stats.seconds(2.0) == pytest.approx(stats.cycles / 2e9)


class TestCPUModelDetails:
    def test_cache_hierarchy_affects_cycles(self):
        program = build_loop_program()
        traces, _m = run_traced(
            program, [("worker", [64], None) for _ in range(4)], ["worker"]
        )
        fast = CPUConfig()
        slow = CPUConfig()
        slow.l1 = CacheConfig(64, 1, line_bytes=64, hit_latency=1)  # tiny L1
        slow.dram_latency = 500
        a = CPUSimulator(fast).run(traces, program)
        b = CPUSimulator(slow).run(traces, program)
        assert a.cycles <= b.cycles

    def test_per_core_cycles_reported(self):
        program = build_loop_program()
        traces, _m = run_traced(
            program, [("worker", [16], None) for _ in range(6)], ["worker"]
        )
        config = CPUConfig()
        config.cores = 3
        stats = CPUSimulator(config).run(traces, program)
        assert len(stats.per_core_cycles) == 3
        assert max(stats.per_core_cycles) == stats.cycles
        assert all(c > 0 for c in stats.per_core_cycles)

    def test_l1_hit_rate_reported(self):
        program = build_loop_program()
        traces, _m = run_traced(
            program, [("worker", [32], None)], ["worker"]
        )
        stats = CPUSimulator().run(traces, program)
        assert 0.0 <= stats.l1_hit_rate <= 1.0
