"""Dynamic Control Flow Graph (DCFG) construction.

The analyzer builds one DCFG *per function* from the merged per-thread
traces, exactly as the paper describes: building one graph for the whole
trace would let a shared function's return edge point at many blocks and
make IPDOM overly conservative, so every function gets its own graph with
a *virtual exit block* appended, forcing divergent threads to reconverge at
function end like contemporary SIMT hardware does.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..tracer.events import (
    TOK_BLOCK,
    TOK_CALL,
    TOK_RET,
    ThreadTrace,
    TraceSet,
)
from ..tracer.packed import KIND_B, KIND_CALL, KIND_RET

#: Sentinel node: the per-function virtual exit block.
VEXIT = -1


class FunctionDCFG:
    """The merged dynamic CFG of one function (plus virtual exit).

    Nodes are basic-block addresses (program addresses, plus the
    :data:`VEXIT` sentinel); edges are observed dynamic transitions.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.succs: Dict[int, Set[int]] = {VEXIT: set()}
        self.preds: Dict[int, Set[int]] = {VEXIT: set()}
        self.entries: Set[int] = set()
        self.ipdom: Dict[int, int] = {}

    def add_edge(self, src: int, dst: int) -> None:
        """Record one observed transition between block addresses."""
        self.succs.setdefault(src, set()).add(dst)
        self.succs.setdefault(dst, set())
        self.preds.setdefault(dst, set()).add(src)
        self.preds.setdefault(src, set())

    @property
    def nodes(self) -> Iterable[int]:
        """All block addresses of the graph (including :data:`VEXIT`)."""
        return self.succs.keys()

    def __len__(self) -> int:
        return len(self.succs)

    def __repr__(self) -> str:
        return f"<FunctionDCFG {self.name} nodes={len(self.succs)}>"


class DCFGSet:
    """All per-function DCFGs observed in a trace set."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionDCFG] = {}

    def get(self, name: str) -> FunctionDCFG:
        """The DCFG of function ``name``, created empty on first use."""
        dcfg = self.functions.get(name)
        if dcfg is None:
            dcfg = FunctionDCFG(name)
            self.functions[name] = dcfg
        return dcfg

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __getitem__(self, name: str) -> FunctionDCFG:
        return self.functions[name]

    def __iter__(self):
        return iter(self.functions.values())


class _Frame:
    __slots__ = ("dcfg", "last")

    def __init__(self, dcfg: FunctionDCFG) -> None:
        self.dcfg = dcfg
        self.last: int = VEXIT  # VEXIT means "no block seen yet"
        # ``last`` is overwritten on the first block; the sentinel is never
        # used as an edge source because we guard on ``seen``.


def _scan_thread(trace: ThreadTrace, dcfgs: DCFGSet) -> None:
    """The oracle scan: one thread's token tuples, frame by frame."""
    stack = [_Frame(dcfgs.get(trace.root))]
    seen_block = [False]
    for token in trace.tokens:
        kind = token[0]
        if kind == TOK_BLOCK:
            frame = stack[-1]
            addr = token[1]
            if seen_block[-1]:
                frame.dcfg.add_edge(frame.last, addr)
            else:
                frame.dcfg.entries.add(addr)
                frame.dcfg.succs.setdefault(addr, set())
                frame.dcfg.preds.setdefault(addr, set())
                seen_block[-1] = True
            frame.last = addr
        elif kind == TOK_CALL:
            stack.append(_Frame(dcfgs.get(token[1])))
            seen_block.append(False)
        elif kind == TOK_RET:
            frame = stack.pop()
            if seen_block.pop():
                frame.dcfg.add_edge(frame.last, VEXIT)
        # LOCK/UNLOCK tokens carry no control-flow information.
    # A thread that ended inside open frames (HALT / truncation) still
    # pins each open frame's last block to the virtual exit so IPDOM stays
    # well-defined.
    while stack:
        frame = stack.pop()
        had_block = seen_block.pop()
        if had_block:
            frame.dcfg.add_edge(frame.last, VEXIT)


def _scan_packed_thread(root: str, packed, dcfgs: DCFGSet) -> None:
    """:func:`_scan_thread` over packed columns (same edges, same order).

    The frame state lives in locals and edges already present are
    skipped with one membership probe (``add_edge`` is idempotent, so
    the graphs are identical) -- loop bodies and threads sharing control
    flow cost two hash lookups per block instead of five dict writes.
    """
    stack: list = []
    names = packed.names
    dcfg = dcfgs.get(root)
    succs = dcfg.succs
    seen = False
    last = VEXIT
    for kind, a in zip(packed.kinds, packed.arg):
        if kind == KIND_B:
            if seen:
                if a not in succs[last]:
                    dcfg.add_edge(last, a)
            else:
                dcfg.entries.add(a)
                succs.setdefault(a, set())
                dcfg.preds.setdefault(a, set())
                seen = True
            last = a
        elif kind == KIND_CALL:
            stack.append((dcfg, succs, seen, last))
            dcfg = dcfgs.get(names[a])
            succs = dcfg.succs
            seen = False
            last = VEXIT
        elif kind == KIND_RET:
            if seen and VEXIT not in succs[last]:
                dcfg.add_edge(last, VEXIT)
            dcfg, succs, seen, last = stack.pop()
        # LOCK/UNLOCK tokens carry no control-flow information.
    # A thread that ended inside open frames (HALT / truncation) still
    # pins each open frame's last block to the virtual exit.
    while True:
        if seen and VEXIT not in succs[last]:
            dcfg.add_edge(last, VEXIT)
        if not stack:
            break
        dcfg, succs, seen, last = stack.pop()


def build_dcfgs(traces: TraceSet, dedupe: bool = False) -> DCFGSet:
    """Build merged per-function DCFGs from all logical-thread traces.

    ``dedupe=False`` is the reference oracle: it scans every thread's
    token tuples.  ``dedupe=True`` (used by the analyzer) scans the
    packed columns and skips re-scanning
    threads whose control-flow columns -- root, names, kinds, arg --
    exactly match an already-scanned thread's: a duplicate scan adds no
    edges and no entries, so skipping it leaves every graph
    bit-identical while SPMD-style workloads collapse from ``n_threads``
    scans to one per distinct control flow.  Candidates are bucketed by
    ``(root, n_tokens)`` and confirmed with C-speed array equality,
    which exits on the first differing token.
    """
    dcfgs = DCFGSet()
    if not dedupe:
        for trace in traces:
            _scan_thread(trace, dcfgs)
        return dcfgs
    buckets: Dict[tuple, list] = {}
    for trace in traces:
        packed = trace.packed()
        key = (trace.root, packed.n_tokens)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [packed]
        else:
            if any(seen.names == packed.names
                   and seen.kinds == packed.kinds
                   and seen.arg == packed.arg
                   for seen in bucket):
                continue
            bucket.append(packed)
        _scan_packed_thread(trace.root, packed, dcfgs)
    return dcfgs
