"""The ThreadFuser tracer: machine instrumentation hooks -> packed columns.

Plays the role of the paper's PIN tool: it observes basic-block executions,
per-instruction memory accesses, call/return events and lock operations,
splits each CPU thread's stream into one logical trace per invocation of a
*root* (worker) function, and skip-counts lock spinning, I/O and
explicitly excluded functions instead of tracing them.  Each event is
appended straight to the logical thread's packed rows through its
:class:`~repro.tracer.packed.ColumnWriter`; nothing is packed here.

Like PIN's ``INS_InsertIfCall``/``INS_InsertThenCall`` split, the cheap
case runs inline: :attr:`TraceRecorder.live` names the CPU threads whose
trace is open with no excluded function active, and traced kernels
(:mod:`repro.machine.compiled`) append those threads' block and memory
rows themselves.  For the other threads a kernel calls :meth:`on_block`
and records no memory access (:meth:`on_mem` records none for them
either); the interpreter, and the opcodes the kernels delegate to it,
call :meth:`on_mem`.  This class stays the one definition of trace open and
close, exclusion and skips.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional, Set, Tuple

from ..machine.memory import STACK_BASE, STACK_SIZE, stack_rebase
from ..program.ir import BasicBlock
from .events import ThreadTrace, TraceSet
from .packed import KIND_B, KIND_LOCK, KIND_RET, KIND_UNLOCK, ColumnWriter


class _CpuThreadState:
    """Per CPU-thread tracing state."""

    __slots__ = ("trace", "columns", "depth", "excluded_depth", "filtered")

    def __init__(self) -> None:
        self.trace: Optional[ThreadTrace] = None
        #: The live trace's column writer, bound once per logical thread.
        self.columns: Optional[ColumnWriter] = None
        self.depth = 0
        self.excluded_depth = 0
        #: Instructions of the open block of an excluded function,
        #: skip-counted as ``"filtered"`` when the block ends, so a skip
        #: counted inside the block keeps its place in the ``skipped``
        #: key order that trace files record.  Always 0 while no
        #: excluded function is active.
        self.filtered = 0


class TraceRecorder:
    """Machine hooks implementation that records a :class:`TraceSet`.

    Parameters
    ----------
    roots:
        Names of worker functions; each dynamic call to one of them starts
        a fresh logical thread trace (the paper's per-iteration /
        per-worker-call trace granularity).
    exclude:
        Functions whose dynamic extent is skip-counted rather than traced
        (the paper's selective-tracing configuration knob).
    workload:
        Free-form label stored on the resulting :class:`TraceSet`.
    """

    def __init__(self, roots: Iterable[str], exclude: Iterable[str] = (),
                 workload: str = "", program=None) -> None:
        self.roots: Set[str] = set(roots)
        self.exclude: Set[str] = set(exclude)
        self.traces = TraceSet(workload=workload, program=program)
        self._cpu: Dict[int, _CpuThreadState] = defaultdict(
            _CpuThreadState)
        #: ``tid -> (ColumnWriter, stack base)`` of the CPU threads
        #: whose trace is open and no excluded function active: their
        #: block and memory events append rows as they are, with no
        #: state to consult.
        self.live: Dict[int, Tuple[ColumnWriter, int]] = {}

    # ------------------------------------------------------------------

    def _flush_filtered(self, state: _CpuThreadState) -> None:
        if state.filtered:
            state.trace.add_skip(state.filtered, "filtered")
            state.filtered = 0

    def _begin(self, tid: int, root: str) -> None:
        state = self._cpu[tid]
        trace = state.trace = self.traces.new_thread(tid, root)
        state.columns = trace.columns
        state.depth = 1
        state.excluded_depth = 0
        self._go_live(tid, state)

    def _go_live(self, tid: int, state: _CpuThreadState) -> None:
        # Stack addresses are rebased onto a per-*logical*-thread stack
        # (on_mem), so the entry carries that stack's base.
        self.live[tid] = (state.columns,
                          STACK_BASE + state.trace.index * STACK_SIZE)

    def _close(self, tid: int, state: _CpuThreadState) -> None:
        self._flush_filtered(state)
        state.trace.closed = True
        state.trace = None
        state.columns = None
        self.live.pop(tid, None)

    # ------------------------------------------------------------------
    # Machine hook interface.

    def on_thread_start(self, tid: int, function_name: str) -> None:
        if function_name in self.roots:
            self._begin(tid, function_name)

    def on_thread_end(self, tid: int) -> None:
        state = self._cpu[tid]
        if state.trace is not None:
            self._close(tid, state)

    def on_block(self, tid: int, block: BasicBlock) -> None:
        entry = self.live.get(tid)
        if entry is not None:
            entry[0].token(KIND_B, block.addr, len(block.instructions))
            return
        state = self._cpu[tid]
        if state.trace is not None:
            # Inside an excluded function.
            self._flush_filtered(state)
            state.filtered = len(block.instructions)

    def on_mem(self, tid: int, slot: int, is_store: bool, addr: int,
               size: int) -> None:
        entry = self.live.get(tid)
        if entry is not None:
            # Rebase stack addresses onto a per-*logical*-thread stack: on
            # SIMT hardware every fused thread owns private local memory,
            # whereas on the traced CPU all worker invocations of one
            # thread reuse the same stack region (paper Fig. 10: "each
            # thread having its private stack").
            columns, base = entry
            columns.mem(slot, is_store, stack_rebase(addr, base), size)

    def on_call(self, tid: int, function_name: str) -> None:
        state = self._cpu[tid]
        if state.trace is None:
            if function_name in self.roots:
                self._begin(tid, function_name)
            return
        self._flush_filtered(state)
        state.depth += 1
        if state.excluded_depth > 0:
            state.excluded_depth += 1
        elif function_name in self.exclude:
            state.excluded_depth = 1
            del self.live[tid]
        else:
            state.columns.call(function_name)

    def on_ret(self, tid: int) -> None:
        state = self._cpu[tid]
        if state.trace is None:
            return
        self._flush_filtered(state)
        state.depth -= 1
        if state.depth == 0:
            self._close(tid, state)
        elif state.excluded_depth > 0:
            state.excluded_depth -= 1
            if state.excluded_depth == 0:
                self._go_live(tid, state)
        else:
            state.columns.token(KIND_RET, 0)

    def on_lock(self, tid: int, lock_addr: int) -> None:
        self._lock_event(tid, KIND_LOCK, lock_addr)

    def on_unlock(self, tid: int, lock_addr: int) -> None:
        self._lock_event(tid, KIND_UNLOCK, lock_addr)

    def _lock_event(self, tid: int, kind: int, lock_addr: int) -> None:
        state = self._cpu[tid]
        if state.trace is None:
            return
        self._flush_filtered(state)
        if state.excluded_depth == 0:
            state.columns.token(kind, lock_addr)

    def on_skip(self, tid: int, count: int, reason: str) -> None:
        state = self._cpu[tid]
        if state.trace is not None:
            state.trace.add_skip(count, reason)
        else:
            self.traces.untraced_skipped[reason] = (
                self.traces.untraced_skipped.get(reason, 0) + count
            )
