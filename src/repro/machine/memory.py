"""Byte-addressed memory with stack/heap segmentation.

The analyzer's memory-divergence report splits 32-byte transactions into
*stack* and *heap* traffic (paper Fig. 10), so the machine gives every
thread a private stack region in a dedicated address range and places all
global data and dynamic allocations in a shared heap range.  Classification
is a pure address-range check, the same way the paper's tool classifies
x86 accesses.
"""

from __future__ import annotations

from typing import Dict

from .errors import MachineError

#: Segment bases (heap base matches ``Program.DATA_BASE``).
HEAP_BASE = 0x1000_0000
STACK_BASE = 0x7000_0000
STACK_SIZE = 1 << 20  # 1 MiB per thread

SEG_HEAP = "heap"
SEG_STACK = "stack"


def segment_of(addr: int) -> str:
    """Classify an address as stack or heap traffic."""
    return SEG_STACK if addr >= STACK_BASE else SEG_HEAP


def stack_top(tid: int) -> int:
    """Initial stack pointer for thread ``tid`` (frames grow downward)."""
    return STACK_BASE + (tid + 1) * STACK_SIZE


def stack_rebase_source(addr: str, base: str) -> str:
    """Moving a stack address to the same offset of the stack region
    starting at ``base``, as a Python expression over the names
    ``addr`` and ``base``; heap addresses stay as they are.

    Source text, so that traced kernels (:mod:`repro.machine.compiled`)
    splice it in while the tracer calls it compiled
    (:func:`stack_rebase`): both engines rebase by this one definition.
    """
    return (f"{addr} if {addr} < {STACK_BASE:#x} else "
            f"({addr} - {STACK_BASE:#x}) % {STACK_SIZE:#x} + {base}")


#: ``stack_rebase(addr, base)``: :func:`stack_rebase_source` compiled.
stack_rebase = eval(
    f"lambda addr, base: {stack_rebase_source('addr', 'base')}")


class Memory:
    """A sparse word store.

    Values live at their exact byte address; accesses must use consistent
    sizes per address (the builder-generated code always does).  Reads of
    untouched memory return 0, like zero-initialized pages.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: Dict[int, object] = {}

    def load(self, addr: int, size: int = 8):
        if addr < 0:
            raise MachineError(f"load from negative address {addr:#x}")
        return self._words.get(addr, 0)

    def store(self, addr: int, value, size: int = 8) -> None:
        if addr < 0:
            raise MachineError(f"store to negative address {addr:#x}")
        self._words[addr] = value

    # -- host-side (untraced) helpers for workload setup ---------------------

    def write_words(self, addr: int, values, size: int = 8) -> None:
        """Bulk write ``values`` at ``addr`` with ``size``-byte pitch."""
        for i, value in enumerate(values):
            self._words[addr + i * size] = value

    def read_words(self, addr: int, count: int, size: int = 8) -> list:
        return [self._words.get(addr + i * size, 0) for i in range(count)]

    def footprint(self) -> int:
        """Number of distinct touched addresses."""
        return len(self._words)
