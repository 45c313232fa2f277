"""The multicore CPU timing model implementation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import classes
from ..program.ir import Program
from ..simulator.cache import Cache
from ..simulator.config import CacheConfig
from ..tracer.events import TraceSet
from ..tracer.packed import KIND_B


def _default_cpi() -> Dict[str, float]:
    """Per-class CPI for a wide out-of-order core (amortized)."""
    return {
        classes.INT_ALU: 0.35,
        classes.INT_MUL: 0.5,
        classes.INT_DIV: 6.0,
        classes.FP_ALU: 0.5,
        classes.FP_MUL: 0.5,
        classes.FP_DIV: 5.0,
        classes.SFU: 8.0,
        classes.MOVE: 0.35,
        classes.BRANCH: 0.6,
        classes.CALL: 1.5,
        classes.RET: 1.5,
        classes.SYNC: 12.0,
        classes.IO: 1.0,
        classes.NOP: 0.25,
    }


@dataclass
class CPUConfig:
    name: str = "xeon-e5-2630"
    cores: int = 20
    clock_ghz: float = 2.6
    cpi: Dict[str, float] = field(default_factory=_default_cpi)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, line_bytes=64,
                                            hit_latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 8, line_bytes=64,
                                            hit_latency=12)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(25 * 1024 * 1024, 20,
                                            line_bytes=64, hit_latency=40)
    )
    dram_latency: int = 180


def xeon_e5_2630() -> CPUConfig:
    """The paper's tracing host: 20-core Intel Xeon E5-2630."""
    return CPUConfig()


@dataclass
class CPUStats:
    cycles: int = 0
    instructions: int = 0
    per_core_cycles: List[int] = field(default_factory=list)
    l1_hit_rate: float = 0.0

    def seconds(self, clock_ghz: float) -> float:
        return self.cycles / (clock_ghz * 1e9)


class CPUSimulator:
    """Times a :class:`TraceSet` on a multicore CPU model."""

    def __init__(self, config: Optional[CPUConfig] = None) -> None:
        self.config = config or CPUConfig()

    def run(self, traces: TraceSet,
            program: Optional[Program] = None) -> CPUStats:
        program = program or traces.program
        if program is None:
            raise ValueError("CPU timing needs the program for opcode mix")
        config = self.config
        # One L1/L2 per core, shared L3.
        l1s = [Cache(config.l1) for _ in range(config.cores)]
        l2s = [Cache(config.l2) for _ in range(config.cores)]
        l3 = Cache(config.l3)
        core_cycles = [0.0] * config.cores
        total_instr = 0
        cpi = config.cpi
        # Block address -> its instructions' CPIs, added one by one in
        # instruction order so each float sum matches a walk of the
        # block's instructions.
        block_cpis: Dict[int, Tuple[float, ...]] = {}

        # Logical threads run sequentially on the CPU thread that spawned
        # them; CPU threads pack round-robin onto cores.
        for trace in traces:
            core = trace.cpu_tid % config.cores
            l1, l2 = l1s[core], l2s[core]
            cycles = 0.0
            packed = trace.packed()
            packed.ensure_verified()
            arg, nins, moff, maddr = (
                packed.arg, packed.nins, packed.moff, packed.maddr)
            for i, kind in enumerate(packed.kinds):
                if kind != KIND_B:
                    continue
                cpis = block_cpis.get(arg[i])
                if cpis is None:
                    block = program.block_by_addr[arg[i]]
                    cpis = block_cpis[arg[i]] = tuple(
                        cpi.get(instr.iclass, 1.0)
                        for instr in block.instructions)
                total_instr += nins[i]
                for instr_cpi in cpis:
                    cycles += instr_cpi
                for addr in maddr[moff[i]:moff[i + 1]]:
                    if l1.access(addr):
                        cycles += config.l1.hit_latency
                    elif l2.access(addr):
                        cycles += config.l2.hit_latency
                    elif l3.access(addr):
                        cycles += config.l3.hit_latency
                    else:
                        cycles += config.dram_latency
            core_cycles[core] += cycles

        stats = CPUStats()
        stats.per_core_cycles = [int(c) for c in core_cycles]
        stats.cycles = int(max(core_cycles)) if core_cycles else 0
        stats.instructions = total_instr
        hits = sum(c.hits for c in l1s)
        accesses = sum(c.accesses for c in l1s)
        stats.l1_hit_rate = hits / accesses if accesses else 0.0
        return stats
