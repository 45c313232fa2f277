"""Unit tests for the GPU simulator, caches and CPU timing model."""

import dataclasses
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import classes
from repro.simulator import (
    Cache,
    CacheConfig,
    GPUConfig,
    GPUSimulator,
    project_speedup,
    rtx3070,
    small_simt_cpu,
)
from repro.cpusim import CPUSimulator, xeon_e5_2630
from repro.tracegen import (
    SPACE_GLOBAL,
    SPACE_LOCAL,
    KernelTrace,
    WarpInstruction,
    generate_kernel_trace,
)

from util import build_diamond_program, build_loop_program, run_traced


class TestCache:
    def test_repeated_access_hits(self):
        cache = Cache(CacheConfig(1024, 2))
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_bytes_hit(self):
        cache = Cache(CacheConfig(1024, 2, line_bytes=32))
        cache.access(0x100)
        assert cache.access(0x108)

    def test_lru_eviction(self):
        # 2-way, line 32, size 64 -> exactly one set.
        cache = Cache(CacheConfig(64, 2, line_bytes=32))
        cache.access(0x000)
        cache.access(0x400)
        cache.access(0x000)   # touch A: B is now LRU
        cache.access(0x800)   # evicts B
        assert cache.access(0x000)
        assert not cache.access(0x400)

    def test_hit_rate(self):
        cache = Cache(CacheConfig(1024, 4))
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.hit_rate() == pytest.approx(2 / 3)


class EagerCache:
    """Reference model for :class:`Cache`: every set is built up front as
    one ``OrderedDict`` in a list, with LRU order and allocate-on-miss."""

    def __init__(self, config):
        self.config = config
        self._sets = [OrderedDict() for _ in range(config.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr, is_write=False):
        line = addr // self.config.line_bytes
        cset = self._sets[line % self.config.n_sets]
        if line in cset:
            cset.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        cset[line] = True
        if len(cset) > self.config.assoc:
            cset.popitem(last=False)
        return False


@st.composite
def cache_streams(draw):
    """A small cache geometry and a read/write stream over about three
    times its capacity, so hits, misses and evictions all occur."""
    n_sets = draw(st.integers(min_value=1, max_value=64))
    assoc = draw(st.integers(min_value=1, max_value=8))
    line_bytes = draw(st.sampled_from([32, 64]))
    # Sizes that are not a whole number of sets round down to n_sets.
    slack = draw(st.integers(min_value=0, max_value=line_bytes * assoc - 1))
    config = CacheConfig(n_sets * line_bytes * assoc + slack, assoc,
                         line_bytes=line_bytes)
    base = draw(st.sampled_from([0, 0x1000_0000, 0x4_0000_0000]))
    span = 3 * n_sets * assoc * line_bytes
    stream = draw(st.lists(
        st.tuples(st.integers(min_value=base, max_value=base + span),
                  st.booleans()),
        max_size=400))
    return config, stream


class TestLazyCacheAgainstEager:
    @settings(max_examples=200, deadline=None)
    @given(cache_streams())
    def test_same_hit_or_miss_on_every_access(self, case):
        config, stream = case
        lazy, eager = Cache(config), EagerCache(config)
        for addr, is_write in stream:
            assert lazy.access(addr, is_write) == eager.access(addr, is_write)
        assert (lazy.hits, lazy.misses) == (eager.hits, eager.misses)
        assert lazy.accesses == len(stream)


def _mini_kernel(n_instr=100, n_warps=2, mem_every=0, space=SPACE_GLOBAL,
                 stride=32):
    kernel = KernelTrace("k", 32)
    for w in range(n_warps):
        stream = kernel.new_warp(32)
        for i in range(n_instr):
            if mem_every and i % mem_every == 0:
                accesses = [(0x1000_0000 + w * 0x10000 + i * stride + lane * 8, 8)
                            for lane in range(32)]
                stream.append(WarpInstruction(
                    0x400000 + 4 * i, classes.LOAD, (1 << 32) - 1,
                    space=space, accesses=accesses))
            else:
                stream.append(WarpInstruction(
                    0x400000 + 4 * i, classes.INT_ALU, (1 << 32) - 1))
    return kernel


class TestGPUSimulator:
    def test_alu_kernel_is_issue_bound(self):
        kernel = _mini_kernel(n_instr=200, n_warps=8)
        sim = GPUSimulator(rtx3070())
        stats = sim.run(kernel)
        # 8 warps in one block on one SM, 1 issue/cycle.
        assert stats.instructions == 1600
        assert stats.cycles == pytest.approx(1600, rel=0.1)

    def test_memory_kernel_slower_than_alu(self):
        sim_a = GPUSimulator(rtx3070())
        a = sim_a.run(_mini_kernel(n_instr=64, n_warps=1))
        sim_b = GPUSimulator(rtx3070())
        b = sim_b.run(_mini_kernel(n_instr=64, n_warps=1, mem_every=4))
        assert b.cycles > a.cycles

    def test_more_warps_hide_latency(self):
        lone = GPUSimulator(rtx3070()).run(
            _mini_kernel(n_instr=64, n_warps=1, mem_every=8))
        many_sim = GPUSimulator(rtx3070())
        many = many_sim.run(_mini_kernel(n_instr=64, n_warps=8, mem_every=8))
        # 8x the work in much less than 8x the time.
        assert many.cycles < 8 * lone.cycles * 0.6

    def test_divergent_stream_costs_issue_slots(self):
        full = _mini_kernel(n_instr=100, n_warps=1)
        sparse = KernelTrace("k", 32)
        stream = sparse.new_warp(32)
        for i in range(100):
            stream.append(WarpInstruction(0x400000, classes.INT_ALU, 0b1))
        full_stats = GPUSimulator(rtx3070()).run(full)
        sparse_stats = GPUSimulator(rtx3070()).run(sparse)
        assert sparse_stats.cycles == pytest.approx(full_stats.cycles,
                                                    rel=0.05)
        assert sparse_stats.thread_instructions < full_stats.thread_instructions

    def test_coalesced_cheaper_than_strided(self):
        coal = GPUSimulator(rtx3070()).run(
            _mini_kernel(n_instr=64, mem_every=4, stride=32))
        strided_kernel = KernelTrace("k", 32)
        stream = strided_kernel.new_warp(32)
        for i in range(64):
            if i % 4 == 0:
                accesses = [(0x1000_0000 + i * 0x4000 + lane * 256, 8)
                            for lane in range(32)]
                stream.append(WarpInstruction(
                    0x400000, classes.LOAD, (1 << 32) - 1,
                    space=SPACE_GLOBAL, accesses=accesses))
            else:
                stream.append(WarpInstruction(0x400000, classes.INT_ALU,
                                              (1 << 32) - 1))
        strided = GPUSimulator(rtx3070()).run(strided_kernel)
        assert strided.transactions > coal.transactions
        assert strided.cycles > coal.cycles

    def test_local_space_is_coalesced(self):
        kernel = KernelTrace("k", 32)
        stream = kernel.new_warp(32)
        # Stack addresses 1 MiB apart would be 32 transactions in global
        # space; local space interleaves them.
        accesses = [(0x7000_0000 + lane * (1 << 20), 8) for lane in range(32)]
        stream.append(WarpInstruction(0x400000, classes.LOAD,
                                      (1 << 32) - 1, space=SPACE_LOCAL,
                                      accesses=accesses))
        stats = GPUSimulator(rtx3070()).run(kernel)
        assert stats.transactions == 8  # 32 lanes x 8B / 32B

    def test_replication_scales_work(self):
        kernel = _mini_kernel(n_instr=64, n_warps=2)
        one = GPUSimulator(rtx3070()).run(kernel, replicate=1)
        four = GPUSimulator(rtx3070()).run(kernel, replicate=4)
        assert four.instructions == 4 * one.instructions

    def test_oversized_kernel_warp_rejected(self):
        kernel = KernelTrace("k", 64)
        config = rtx3070()
        with pytest.raises(ValueError):
            GPUSimulator(config).run(kernel)

    def test_small_simt_cpu_config_valid(self):
        config = small_simt_cpu()
        kernel = _mini_kernel(n_instr=32, n_warps=2)
        kernel.warp_size = 8
        stats = GPUSimulator(config).run(kernel)
        assert stats.cycles > 0


class TestCPUSimulator:
    def _traces(self):
        program = build_loop_program()
        return run_traced(
            program, [("worker", [16], None) for _ in range(8)], ["worker"]
        )[0], program

    def test_cycles_positive_and_scale_with_work(self):
        traces, program = self._traces()
        stats = CPUSimulator(xeon_e5_2630()).run(traces, program)
        assert stats.cycles > 0
        assert stats.instructions == traces.total_instructions

    def test_more_threads_than_cores_serialize(self):
        program = build_loop_program()
        few, _ = run_traced(program, [("worker", [32], None)], ["worker"])
        import dataclasses

        config = xeon_e5_2630()
        config.cores = 1
        one_core = CPUSimulator(config).run(few, program)
        config20 = xeon_e5_2630()
        many, _ = run_traced(
            program, [("worker", [32], None) for _ in range(20)], ["worker"]
        )
        twenty = CPUSimulator(config20).run(many, program)
        # 20x the work on 20 cores costs about the same as 1x on 1 core.
        assert twenty.cycles == pytest.approx(one_core.cycles, rel=0.3)

    def test_requires_program(self):
        traces, _ = self._traces()
        traces.program = None
        with pytest.raises(ValueError):
            CPUSimulator().run(traces)

    #: Exact outputs of the default model (seed 7, 16 threads), pinned
    #: so a change in how the model walks the traces cannot drift them.
    PINNED = {
        "memcached": (1063, 2572,
                      [1063, 616, 475, 879, 624, 616, 379, 335]
                      + [0] * 12,
                      0.45714285714285713),
        "md5": (1912, 16416,
                [1912] + [1212] * 7 + [1352] + [1212] * 7 + [0] * 4,
                0.9135802469135802),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_outputs(self, name):
        from repro.workloads import get_workload, trace_instance

        instance = get_workload(name).instantiate(16, seed=7)
        traces, _machine = trace_instance(instance)
        stats = CPUSimulator(xeon_e5_2630()).run(traces, instance.program)
        assert (stats.cycles, stats.instructions, stats.per_core_cycles,
                stats.l1_hit_rate) == self.PINNED[name]


class TestSpeedupProjection:
    #: Exact ``project_speedup`` outputs (seed 7, no upscaling):
    #: ``repr(simt_efficiency)``, every ``GPUStats`` field in declaration
    #: order, and the CPU model's cycles.  The 16-thread sets run on one
    #: SM and never hit in L2; ``btree``@96 does on ``small_simt_cpu``.
    PINNED = {
        ("md5", 16, "rtx3070", 32): (
            "0.5", (5811, 1026, 16416, 81, 324, 272, 52, 0, 52, 1664, 4785),
            1912),
        ("md5", 16, "small_simt_cpu", 8): (
            "1.0", (3184, 2052, 16416, 162, 356, 304, 52, 0, 52, 1664, 1132),
            1912),
        ("memcached", 16, "rtx3070", 32): (
            "0.4416208791208791",
            (1581, 182, 2572, 12, 32, 10, 22, 0, 22, 704, 1399), 1063),
        ("memcached", 16, "small_simt_cpu", 8): (
            "0.8832417582417582",
            (971, 364, 2572, 24, 45, 23, 22, 0, 22, 704, 607), 1063),
        ("btree", 96, "rtx3070", 32): (
            "0.7331632653061224",
            (3033, 490, 11496, 81, 777, 588, 189, 0, 189, 6048, 2543), 3799),
        ("btree", 96, "small_simt_cpu", 8): (
            "0.7464935064935065",
            (2006, 1925, 11496, 324, 1297, 1026, 271, 82, 189, 6048, 1288),
            3799),
    }

    @pytest.mark.parametrize("name,threads", [("btree", 96), ("md5", 16),
                                              ("memcached", 16)])
    def test_pinned_outputs(self, name, threads):
        from repro.workloads import get_workload, trace_instance

        instance = get_workload(name).instantiate(threads, seed=7)
        traces, _machine = trace_instance(instance)
        for config, warp in ((rtx3070, 32), (small_simt_cpu, 8)):
            result = project_speedup(traces, instance.program, config(),
                                     warp_size=warp)
            got = (repr(result.simt_efficiency),
                   dataclasses.astuple(result.gpu), result.cpu.cycles)
            assert got == self.PINNED[name, threads, config.__name__, warp]

    def test_uniform_workload_speeds_up_with_scale(self):
        program = build_loop_program()
        traces, _m = run_traced(
            program, [("worker", [32], None) for _ in range(64)], ["worker"]
        )
        small = project_speedup(traces, program, launch_threads=64)
        large = project_speedup(traces, program, launch_threads=4096)
        assert large.speedup > small.speedup

    def test_result_fields_consistent(self):
        program = build_diamond_program()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(32)], ["worker"]
        )
        result = project_speedup(traces, program)
        assert result.gpu_seconds > 0
        assert result.cpu_seconds > 0
        assert result.speedup == pytest.approx(
            result.cpu_seconds / result.gpu_seconds
        )
        assert 0 < result.simt_efficiency <= 1

    @pytest.mark.parametrize("launch_threads", [0, -64, 2.5, True])
    def test_launch_threads_must_be_none_or_positive(self, launch_threads):
        program = build_diamond_program()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(8)], ["worker"]
        )
        with pytest.raises(ValueError, match="launch_threads"):
            project_speedup(traces, program, launch_threads=launch_threads)

    @pytest.mark.parametrize("replicate", [0, -2])
    def test_replicate_below_one_is_rejected(self, replicate):
        program = build_diamond_program()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(8)], ["worker"]
        )
        kernel = generate_kernel_trace(traces, program, warp_size=8)
        with pytest.raises(ValueError, match="replicate"):
            GPUSimulator(rtx3070()).run(kernel, replicate=replicate)
