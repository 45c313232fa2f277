"""Warp-based instruction trace containers.

These are the artifacts ThreadFuser feeds to a trace-driven SIMT
simulator: per-warp streams of RISC micro-ops with active masks and, for
memory micro-ops, per-lane addresses.  Stack accesses are mapped to the
*local* memory space and heap accesses to *global*, as the paper does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..machine.memory import SEG_STACK, segment_of

SPACE_GLOBAL = "global"
SPACE_LOCAL = "local"


class WarpInstruction:
    """One lock-step micro-op of a warp."""

    __slots__ = ("pc", "op_class", "mask", "space", "accesses")

    def __init__(self, pc: int, op_class: str, mask: int,
                 space: Optional[str] = None,
                 accesses: Optional[Sequence[Tuple[int, int]]] = None) -> None:
        self.pc = pc
        self.op_class = op_class
        self.mask = mask
        self.space = space
        self.accesses = list(accesses) if accesses else None

    @property
    def active_lanes(self) -> int:
        return self.mask.bit_count()

    def is_memory(self) -> bool:
        return self.space is not None

    def __repr__(self) -> str:
        mem = f" {self.space}" if self.space else ""
        return (
            f"<WInst pc={self.pc:#x} {self.op_class}{mem} "
            f"mask={self.mask:b}>"
        )


class WarpStream:
    """The full micro-op stream of one warp."""

    def __init__(self, warp_id: int, n_threads: int) -> None:
        self.warp_id = warp_id
        self.n_threads = n_threads
        self.instructions: List[WarpInstruction] = []

    def append(self, instr: WarpInstruction) -> None:
        self.instructions.append(instr)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    @property
    def issues(self) -> int:
        return len(self.instructions)

    @property
    def thread_instructions(self) -> int:
        return sum(i.active_lanes for i in self.instructions)


class KernelTrace:
    """A kernel launch: one stream per warp plus launch metadata."""

    def __init__(self, name: str, warp_size: int) -> None:
        self.name = name
        self.warp_size = warp_size
        self.warps: List[WarpStream] = []

    def new_warp(self, n_threads: int) -> WarpStream:
        stream = WarpStream(len(self.warps), n_threads)
        self.warps.append(stream)
        return stream

    @property
    def n_threads(self) -> int:
        return sum(w.n_threads for w in self.warps)

    @property
    def total_issues(self) -> int:
        return sum(w.issues for w in self.warps)

    @property
    def total_thread_instructions(self) -> int:
        return sum(w.thread_instructions for w in self.warps)

    def simt_efficiency(self) -> float:
        issues = self.total_issues
        if issues == 0:
            return 1.0
        return self.total_thread_instructions / (issues * self.warp_size)

    def __repr__(self) -> str:
        return (
            f"<KernelTrace {self.name!r} warps={len(self.warps)} "
            f"issues={self.total_issues}>"
        )


def space_of(addr: int) -> str:
    """Map an address to the simulator memory space (paper Sec. III)."""
    return SPACE_LOCAL if segment_of(addr) == SEG_STACK else SPACE_GLOBAL
