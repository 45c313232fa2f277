"""Trace containers and the token grammar.

A *logical thread* follows the paper's correlation methodology: one trace
per dynamic invocation of a traced worker function (one OpenMP iteration /
one Pthread worker call), so CPU scheduling does not perturb the
CPU-vs-GPU thread mapping.

A trace lives in memory only as packed rows and columns
(:mod:`repro.tracer.packed`): the recorder and the traced kernels
write them as the machine runs.  The token tuple stream below is the
reference oracle's view of the same content -- the tuple replayer, the
oracle DCFG scan, the XAPP baseline and tests read it, and
:attr:`ThreadTrace.tokens` materializes it from the columns.  One
stream per logical thread::

    ("B", block_addr, n_instructions, mems)   executed basic block
    ("C", callee_name)                        call into callee (traced)
    ("R",)                                    return to caller
    ("L", lock_addr)                          lock acquired
    ("U", lock_addr)                          lock released

``mems`` is a tuple of ``(slot, is_store, addr, size)`` records, where
``slot`` is the instruction's index inside the block -- the alignment key
the coalescer uses to gather the same instruction's addresses across the
lanes of a warp.
"""

from __future__ import annotations

from typing import Dict, List

from .packed import (
    TOK_BLOCK,
    TOK_CALL,
    TOK_LOCK,
    TOK_RET,
    TOK_UNLOCK,
    ColumnWriter,
    PackedTrace,
)

__all__ = ["TOK_BLOCK", "TOK_CALL", "TOK_LOCK", "TOK_RET", "TOK_UNLOCK",
           "ThreadTrace", "TraceSet"]


class ThreadTrace:
    """The dynamic trace of one logical (SIMT) thread.

    The content is the eight pristine packed columns.  A recorded trace
    holds them as rows in :attr:`columns`, the :class:`ColumnWriter` the
    recorder and the traced kernels append to; the first :meth:`packed`
    call splits them into a :class:`PackedTrace` (signature, the
    ``trace.pack`` fault site) and drops the writer.  Traces loaded from
    disk or shared memory arrive packed (:meth:`attach_packed`).
    :attr:`tokens` is a tuple view for the oracle, materialized once
    from the pack; assigning ``trace.tokens = [...]`` packs the list as
    the new content.
    """

    __slots__ = ("index", "cpu_tid", "root", "skipped", "closed",
                 "columns", "_packed", "_tokens")

    def __init__(self, index: int, cpu_tid: int, root: str) -> None:
        self.index = index
        self.cpu_tid = cpu_tid
        self.root = root
        #: The columns while they are recorded; None once packed.
        self.columns = ColumnWriter()
        self._packed = None
        self._tokens = None
        self.skipped: Dict[str, int] = {}
        self.closed = False

    @property
    def tokens(self) -> List[tuple]:
        """Token tuple stream, materialized once from the pack.

        A view: edits to the list never reach the columns; assign a new
        list to change the content.
        """
        if self._tokens is None:
            self._tokens = self.packed().to_tokens()
        return self._tokens

    @tokens.setter
    def tokens(self, value: List[tuple]) -> None:
        self.attach_packed(PackedTrace.from_tokens(value))

    @property
    def n_tokens(self) -> int:
        """Token count without packing or materializing tuples."""
        return (self.columns or self._packed).n_tokens

    def packed(self) -> PackedTrace:
        """The :class:`PackedTrace` (built on the first call, then cached)."""
        if self._packed is None:
            self._packed = self.columns.pack()
            self.columns = None
        return self._packed

    def attach_packed(self, packed: PackedTrace) -> None:
        """Adopt ``packed`` as the trace content."""
        self._packed = packed
        self.columns = None
        self._tokens = None

    @property
    def signature(self) -> str:
        """sha256 content signature of the packed token columns."""
        packed = self.packed()
        packed.ensure_verified()
        return packed.signature

    @property
    def n_instructions(self) -> int:
        """Traced dynamic instruction count (never forces a pack)."""
        if self.columns is not None:
            return self.columns.n_instructions
        return self._packed.total_instructions

    @property
    def n_skipped(self) -> int:
        return sum(self.skipped.values())

    def add_skip(self, count: int, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + count

    def __repr__(self) -> str:
        return (
            f"<ThreadTrace #{self.index} root={self.root} "
            f"tokens={self.n_tokens} instrs={self.n_instructions}>"
        )


class TraceSet:
    """All logical-thread traces collected from one program run."""

    def __init__(self, workload: str = "", program=None) -> None:
        self.workload = workload
        self.program = program
        self.threads: List[ThreadTrace] = []
        #: Skipped instructions attributed outside any traced extent.
        self.untraced_skipped: Dict[str, int] = {}

    def new_thread(self, cpu_tid: int, root: str) -> ThreadTrace:
        trace = ThreadTrace(len(self.threads), cpu_tid, root)
        self.threads.append(trace)
        return trace

    def __len__(self) -> int:
        return len(self.threads)

    def __iter__(self):
        return iter(self.threads)

    @property
    def total_instructions(self) -> int:
        return sum(t.n_instructions for t in self.threads)

    @property
    def total_skipped(self) -> int:
        in_trace = sum(t.n_skipped for t in self.threads)
        return in_trace + sum(self.untraced_skipped.values())

    def skipped_by_reason(self) -> Dict[str, int]:
        totals: Dict[str, int] = dict(self.untraced_skipped)
        for trace in self.threads:
            for reason, count in trace.skipped.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def traced_fraction(self) -> float:
        """Fraction of dynamic instructions that were traced (Fig. 8)."""
        traced = self.total_instructions
        total = traced + self.total_skipped
        return traced / total if total else 1.0

    def __repr__(self) -> str:
        return (
            f"<TraceSet {self.workload!r} threads={len(self.threads)} "
            f"instrs={self.total_instructions}>"
        )
