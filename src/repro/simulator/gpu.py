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
    __slots__ = ("stream", "pc", "op_class", "mask", "mem", "n", "pos",
                 "ready", "addr_offset", "uid")

    def __init__(self, stream: WarpStream, addr_offset: int = 0,
                 uid: int = 0) -> None:
        self.stream = stream
        self.pc = stream.pc
        self.op_class = stream.op_class
        self.mask = stream.mask
        self.mem = stream.mem
        self.n = len(stream)
        self.pos = 0
        self.ready = 0
        self.addr_offset = addr_offset
        self.uid = uid


class _SM:
    """One streaming multiprocessor: resident warps + local L1.

    A resident warp always has a micro-op left to issue: a stream with
    none never becomes resident, and a warp retires on issuing its last
    one.
    """

    def __init__(self, sim: "GPUSimulator", sm_id: int) -> None:
        self.sim = sim
        self.sm_id = sm_id
        self.l1 = Cache(sim.config.l1)
        self.pending: List[tuple] = []
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
        stats = self.sim.stats
        greedy = self.sim.config.scheduler != "lrr"
        select = self._select_gto if greedy else self._select_lrr
        self._refill()
        while self.resident or self.pending:
            warp = select()
            if warp is None:
                # All warps stalled: jump to the earliest wake-up.
                nxt = min(w.ready for w in self.resident)
                stats.idle_cycles += max(nxt - self.cycle, 0)
                self.cycle = max(nxt, self.cycle + 1)
            elif self._issue(warp, greedy):
                self._retire(warp)
        return self.cycle

    def _retire(self, warp: _WarpState) -> None:
        """Take a warp that has issued its whole stream off the SM.

        Each micro-op issues exactly once, so the issue counters take
        the warp's whole stream here.
        """
        self.resident.remove(warp)
        if self.last_issued is warp:
            self.last_issued = None
        stats = self.sim.stats
        stream = warp.stream
        stats.instructions += warp.n
        stats.thread_instructions += stream.thread_instructions
        stats.mem_instructions += warp.n - warp.mem.count(None)
        self._refill()

    def _select_gto(self) -> Optional[_WarpState]:
        # Greedy-then-oldest: stick with the last warp while it is ready.
        last = self.last_issued
        if last is not None and last.ready <= self.cycle:
            return last
        best = None
        for warp in self.resident:
            if warp.ready <= self.cycle:
                best = warp
                break
        self.last_issued = best
        return best

    def _select_lrr(self) -> Optional[_WarpState]:
        # Loose round-robin: rotate through the resident warps.
        n = len(self.resident)
        for offset in range(n):
            warp = self.resident[(self._rr_pointer + offset) % n]
            if warp.ready <= self.cycle:
                self._rr_pointer = (self._rr_pointer + offset + 1) % n
                return warp
        return None

    def _issue(self, warp: _WarpState, greedy: bool) -> bool:
        """Issue ``warp``'s next micro-op at the SM's cycle.

        Under GTO (``greedy``) keep issuing, one per cycle, while the
        warp stays ready: GTO would select it again on the next cycle,
        and nothing else that selection reads changes until a warp
        retires.  Returns True once the warp has issued its last
        micro-op.
        """
        latency = self.sim.config.latencies.get
        op_class, mems = warp.op_class, warp.mem
        n = warp.n
        pos = warp.pos
        cycle = self.cycle
        while True:
            mem = mems[pos]
            if mem is None:
                ready = cycle + latency(op_class[pos], 1)
            else:
                # The memory system reads the issue cycle.
                self.cycle = cycle
                ready = self._memory_access(warp, warp.pc[pos],
                                            op_class[pos], warp.mask[pos],
                                            mem)
            pos += 1
            cycle += 1
            if pos == n or not greedy or ready > cycle:
                break
        warp.pos = pos
        warp.ready = ready
        self.cycle = cycle
        return pos == n

    def _memory_access(self, warp: _WarpState, pc: int, op_class: str,
                       mask: int, mem: tuple) -> int:
        """Issue the transactions of one memory micro-op; returns the
        cycle its data is complete."""
        config = self.sim.config
        stats = self.sim.stats
        space, accesses = mem
        if space == SPACE_LOCAL:
            # Local memory is interleaved per-lane by hardware: fully
            # coalesced -> ceil(lanes*size/32) sequential transactions on
            # a per-warp private region (lane-interleaved addresses).
            size = accesses[0][1] if accesses else 8
            n_txn = max((mask.bit_count() * size + 31) // 32, 1)
            base = 0x4_0000_0000 + warp.uid * 0x10_0000 + (pc * 0x40)
            txn_addrs = range(base, base + 32 * n_txn, 32)
        else:
            offset = warp.addr_offset
            segs = set()
            add = segs.add
            for addr, size in accesses:
                addr += offset
                first = addr // 32
                if size > 1:
                    last = (addr + size - 1) // 32
                    if last != first:
                        segs.update(range(first, last + 1))
                        continue
                add(first)
            txn_addrs = [32 * s for s in sorted(segs)] or [0]
        is_write = op_class == classes.STORE

        cycle = self.cycle
        completion = cycle
        lsu_free = max(self.lsu_free, cycle)
        throughput = config.lsu_throughput
        l1_access = self.l1.access
        l2_access = self.sim.l2.access
        l1_latency = config.l1.hit_latency
        l2_latency = config.l2.hit_latency
        l1_hits = l2_hits = l2_misses = 0
        for i, addr in enumerate(txn_addrs):
            issue_at = lsu_free + i // throughput
            if l1_access(addr, is_write):
                l1_hits += 1
                done = issue_at + l1_latency
            elif l2_access(addr, is_write):
                l2_hits += 1
                done = issue_at + l2_latency
            else:
                l2_misses += 1
                done = issue_at + config.dram_latency + self._dram_queue(
                    32, issue_at)
            if done > completion:
                completion = done
        n_txn = len(txn_addrs)
        self.lsu_free = lsu_free + n_txn // throughput
        stats.transactions += n_txn
        stats.l1_hits += l1_hits
        stats.l1_misses += n_txn - l1_hits
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses
        stats.dram_bytes += 32 * l2_misses
        if is_write:
            # Stores retire through the write queue; the warp does not
            # wait for them.
            return cycle + 1
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
                if len(warp):
                    # A warp with nothing to issue keeps its place in
                    # its block but never occupies an SM.
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
