"""Warp-based instruction trace containers.

These are the artifacts ThreadFuser feeds to a trace-driven SIMT
simulator: per-warp streams of RISC micro-ops with active masks and, for
memory micro-ops, per-lane addresses.  Stack accesses are mapped to the
*local* memory space and heap accesses to *global*, as the paper does.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..machine.memory import SEG_STACK, segment_of

SPACE_GLOBAL = "global"
SPACE_LOCAL = "local"

#: One ``WarpStream.mem`` entry: ``None`` (not a memory micro-op) or
#: ``(space, accesses)`` with one ``(addr, size)`` pair per active lane.
MemEntry = Optional[Tuple[str, Tuple[Tuple[int, int], ...]]]


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
    """The full micro-op stream of one warp, held as four columns.

    Micro-op ``i`` is ``pc[i]``, ``op_class[i]``, ``mask[i]`` (the
    active-lane bitmask) and ``mem[i]``: ``None`` for a non-memory
    micro-op, else ``(space, accesses)`` with ``accesses`` a tuple of
    per-lane ``(addr, size)`` pairs.  The generator and the GPU model
    read and write the columns directly; :meth:`append`, iteration and
    :attr:`instructions` convert to and from :class:`WarpInstruction`.
    """

    def __init__(self, warp_id: int, n_threads: int) -> None:
        self.warp_id = warp_id
        self.n_threads = n_threads
        self.pc: List[int] = []
        self.op_class: List[str] = []
        self.mask: List[int] = []
        self.mem: List[MemEntry] = []

    def append(self, instr: WarpInstruction) -> None:
        self.pc.append(instr.pc)
        self.op_class.append(instr.op_class)
        self.mask.append(instr.mask)
        self.mem.append(None if instr.space is None
                        else (instr.space, tuple(instr.accesses or ())))

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[WarpInstruction]:
        for pc, op_class, mask, mem in zip(self.pc, self.op_class,
                                           self.mask, self.mem):
            if mem is None:
                yield WarpInstruction(pc, op_class, mask)
            else:
                yield WarpInstruction(pc, op_class, mask, space=mem[0],
                                      accesses=mem[1])

    @property
    def instructions(self) -> List[WarpInstruction]:
        """The stream as :class:`WarpInstruction` records (built anew)."""
        return list(self)

    @property
    def issues(self) -> int:
        return len(self.pc)

    @property
    def thread_instructions(self) -> int:
        return sum(map(int.bit_count, self.mask))


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
