"""Trace-driven cycle-level SIMT GPU simulator.

The Accel-Sim stand-in: consumes :class:`~repro.tracegen.KernelTrace`
warp streams and produces cycle counts.  The model captures the
first-order effects the paper's Fig. 6 depends on:

* warp-level issue: every lock-step micro-op costs an issue slot whether 1
  or 32 lanes are active, so control divergence directly costs cycles;
* greedy-then-oldest warp scheduling across many resident warps per SM,
  hiding memory latency with thread-level parallelism;
* a 32-byte-sector memory system (L1 per SM, shared L2, bandwidth-limited
  DRAM), so memory divergence costs both latency and bandwidth;
* local-space (stack) accesses are hardware-interleaved and coalesce
  perfectly, as CUDA local memory does.

Warps block on their own memory results (stall-on-use); the SM keeps
issuing other warps, which is where SIMT throughput comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa import classes
from ..tracegen.warptrace import SPACE_LOCAL, KernelTrace, WarpStream
from .cache import Cache
from .config import GPUConfig


@dataclass
class GPUStats:
    """Counters produced by one kernel simulation."""

    cycles: int = 0
    instructions: int = 0          # warp-level issues
    thread_instructions: int = 0   # per-lane executed micro-ops
    mem_instructions: int = 0
    transactions: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_bytes: int = 0
    idle_cycles: int = 0

    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def seconds(self, clock_ghz: float) -> float:
        return self.cycles / (clock_ghz * 1e9)


class _WarpState:
    __slots__ = ("stream", "pc", "ready", "addr_offset", "uid")

    def __init__(self, stream: WarpStream, addr_offset: int = 0,
                 uid: int = 0) -> None:
        self.stream = stream
        self.pc = 0
        self.ready = 0
        self.addr_offset = addr_offset
        self.uid = uid

    def done(self) -> bool:
        return self.pc >= len(self.stream.instructions)


class _SM:
    """One streaming multiprocessor: resident warps + local L1."""

    def __init__(self, sim: "GPUSimulator", sm_id: int) -> None:
        self.sim = sim
        self.sm_id = sm_id
        self.l1 = Cache(sim.config.l1)
        self.pending: List[WarpStream] = []
        self.resident: List[_WarpState] = []
        self.cycle = 0
        self.last_issued: Optional[_WarpState] = None
        self.lsu_free = 0
        self.dram_free = 0.0
        self._rr_pointer = 0

    def add_warp(self, stream: WarpStream, addr_offset: int = 0,
                 uid: int = 0) -> None:
        self.pending.append((stream, addr_offset, uid))

    def _refill(self) -> None:
        while (self.pending
               and len(self.resident) < self.sim.config.max_warps_per_sm):
            stream, offset, uid = self.pending.pop(0)
            self.resident.append(_WarpState(stream, offset, uid))

    def run(self) -> int:
        """Simulate to completion; returns the SM's final cycle."""
        self._refill()
        stats = self.sim.stats
        while self.resident or self.pending:
            self._refill()
            warp = self._select()
            if warp is None:
                # All warps stalled: jump to the earliest wake-up.
                nxt = min(w.ready for w in self.resident)
                stats.idle_cycles += max(nxt - self.cycle, 0)
                self.cycle = max(nxt, self.cycle + 1)
                continue
            self._issue(warp)
            self.cycle += 1
            if warp.done():
                self.resident.remove(warp)
                if self.last_issued is warp:
                    self.last_issued = None
        return self.cycle

    def _select(self) -> Optional[_WarpState]:
        if self.sim.config.scheduler == "lrr":
            return self._select_lrr()
        return self._select_gto()

    def _select_gto(self) -> Optional[_WarpState]:
        # Greedy-then-oldest: stick with the last warp while it is ready.
        last = self.last_issued
        if last is not None and not last.done() and last.ready <= self.cycle:
            return last
        best = None
        for warp in self.resident:
            if warp.ready <= self.cycle and not warp.done():
                if best is None:
                    best = warp
        self.last_issued = best
        return best

    def _select_lrr(self) -> Optional[_WarpState]:
        # Loose round-robin: rotate through the resident warps.
        n = len(self.resident)
        for offset in range(n):
            warp = self.resident[(self._rr_pointer + offset) % n]
            if warp.ready <= self.cycle and not warp.done():
                self._rr_pointer = (self._rr_pointer + offset + 1) % n
                return warp
        return None

    def _issue(self, warp: _WarpState) -> None:
        config = self.sim.config
        stats = self.sim.stats
        instr = warp.stream.instructions[warp.pc]
        warp.pc += 1
        stats.instructions += 1
        stats.thread_instructions += instr.active_lanes
        if instr.is_memory():
            completion = self._memory_access(warp, instr)
            stats.mem_instructions += 1
            warp.ready = completion
        else:
            warp.ready = self.cycle + config.latencies.get(
                instr.op_class, 1
            )

    def _memory_access(self, warp: _WarpState, instr) -> int:
        """Issue the transactions of one memory micro-op; returns the
        cycle its data is complete."""
        config = self.sim.config
        stats = self.sim.stats
        if instr.space == SPACE_LOCAL:
            # Local memory is interleaved per-lane by hardware: fully
            # coalesced -> ceil(lanes*size/32) sequential transactions on
            # a per-warp private region (lane-interleaved addresses).
            size = instr.accesses[0][1] if instr.accesses else 8
            n_txn = max(
                (instr.active_lanes * size + 31) // 32, 1
            )
            base = 0x4_0000_0000 + warp.uid * 0x10_0000 + (instr.pc * 0x40)
            txn_addrs = [base + 32 * i for i in range(n_txn)]
        else:
            offset = warp.addr_offset
            segs = set()
            for addr, size in instr.accesses or []:
                addr += offset
                first = addr // 32
                last = (addr + max(size, 1) - 1) // 32
                for s in range(first, last + 1):
                    segs.add(s)
            txn_addrs = [32 * s for s in sorted(segs)] or [0]
        is_write = instr.op_class == classes.STORE

        completion = self.cycle
        self.lsu_free = max(self.lsu_free, self.cycle)
        for i, addr in enumerate(txn_addrs):
            stats.transactions += 1
            issue_at = self.lsu_free + i // config.lsu_throughput
            if self.l1.access(addr, is_write):
                stats.l1_hits += 1
                latency = config.l1.hit_latency
            else:
                stats.l1_misses += 1
                if self.sim.l2.access(addr, is_write):
                    stats.l2_hits += 1
                    latency = config.l2.hit_latency
                else:
                    stats.l2_misses += 1
                    latency = config.dram_latency + self._dram_queue(
                        32, issue_at
                    )
                    stats.dram_bytes += 32
            completion = max(completion, issue_at + latency)
        self.lsu_free += len(txn_addrs) // config.lsu_throughput
        if is_write:
            # Stores retire through the write queue; the warp does not
            # wait for them.
            return self.cycle + 1
        return completion

    def _dram_queue(self, n_bytes: int, at_cycle: int) -> int:
        """Mean-field DRAM bandwidth model: each active SM owns an equal
        share of the chip's bandwidth (SMs are simulated independently, so
        a cycle-accurate shared queue is not expressible)."""
        share = self.sim.dram_share
        start = max(self.dram_free, float(at_cycle))
        self.dram_free = start + n_bytes / share
        return int(start - at_cycle)


class GPUSimulator:
    """Simulates one kernel launch on a :class:`GPUConfig` machine."""

    def __init__(self, config: Optional[GPUConfig] = None) -> None:
        self.config = config or GPUConfig()
        self.l2 = Cache(self.config.l2)
        self.stats = GPUStats()
        self.dram_share = self.config.dram_bytes_per_cycle

    def run(self, kernel: KernelTrace, replicate: int = 1) -> GPUStats:
        """Simulate ``kernel``; returns the stats (also on ``self.stats``).

        ``replicate`` launches the traced warps R times with disjoint
        global-address windows -- statistical upscaling of a sampled trace
        to the paper's real launch sizes (2K-42K threads).  Replicas model
        additional independent thread blocks running the same code over
        different data (pessimistic about inter-replica locality).
        A ``replicate`` below 1 raises ``ValueError``.
        """
        if replicate < 1:
            raise ValueError(f"replicate must be at least 1, got {replicate}")
        if kernel.warp_size > self.config.warp_size:
            raise ValueError(
                f"kernel warp size {kernel.warp_size} exceeds machine "
                f"warp size {self.config.warp_size}"
            )
        sms = [_SM(self, i) for i in range(self.config.num_sms)]
        # Warps are grouped into thread blocks and blocks placed round-
        # robin across SMs, as on real hardware -- co-resident warps are
        # what hide each other's memory latency.
        wpb = max(self.config.warps_per_block, 1)
        uid = 0
        for rep in range(replicate):
            offset = rep * 0x1000_0000
            for i, warp in enumerate(kernel.warps):
                block_index = (rep * len(kernel.warps) + i) // wpb
                sms[block_index % len(sms)].add_warp(warp, offset, uid)
                uid += 1
        active = [sm for sm in sms if sm.pending]
        self.dram_share = self.config.dram_bytes_per_cycle / max(
            len(active), 1
        )
        final = 0
        for sm in active:
            final = max(final, sm.run())
        self.stats.cycles = max(final, 1)
        return self.stats
