"""The MIMD machine: memory, threads and the multithreaded interpreter."""

from .errors import DeadlockError, InstructionLimitError, MachineError
from .memory import (
    HEAP_BASE,
    STACK_BASE,
    STACK_SIZE,
    SEG_HEAP,
    SEG_STACK,
    Memory,
    segment_of,
    stack_top,
)
from .machine import Machine, NullHooks, ThreadContext
from .compiled import kernel_table

__all__ = [
    "kernel_table",
    "DeadlockError",
    "InstructionLimitError",
    "MachineError",
    "HEAP_BASE",
    "STACK_BASE",
    "STACK_SIZE",
    "SEG_HEAP",
    "SEG_STACK",
    "Memory",
    "segment_of",
    "stack_top",
    "Machine",
    "NullHooks",
    "ThreadContext",
]
