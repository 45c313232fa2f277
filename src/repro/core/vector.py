"""Bulk column operations behind the production replayer's span steps.

:class:`~repro.core.replay.VectorWarpReplayer` consumes whole converged
spans of packed columns at once; the arithmetic it needs -- "first index
of a value in a column slice", "length of the common prefix of two
column slices", "32-byte transaction counts for a span of aligned memory
records across lanes", "segment totals for one lane's record span" --
lives here, built from stdlib slicing and set arithmetic.

All address/segment columns handled here are int64 (``array`` typecode
``"q"``) whether they live in process-local ``array`` objects or in
shared-memory ``memoryview`` casts; both support the slicing and
indexing used below.
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = [
    "first_index",
    "numpy_active",
    "prefix_len",
    "solo_span_stats",
    "span_stats",
]


def numpy_active() -> bool:
    """Always False: every operation here is pure stdlib.

    Kept for result documents that record whether numpy accelerated the
    replay.
    """
    return False


def first_index(col, lo: int, hi: int, value: int) -> int:
    """First ``i`` in ``[lo, hi)`` with ``col[i] == value``, else -1."""
    index = getattr(col, "index", None)
    if index is not None:  # array.array: start/stop need Python 3.10+
        try:
            return index(value, lo, hi)
        except ValueError:
            return -1
    for i in range(lo, hi):  # memoryview columns (shared-memory arenas)
        if col[i] == value:
            return i
    return -1


def prefix_len(a, ao: int, b, bo: int, k: int) -> int:
    """Longest ``l <= k`` with ``a[ao:ao+l] == b[bo:bo+l]``.

    Bisects on slice equality so every comparison runs at C speed; the
    all-equal fast path (converged lanes) costs exactly one compare.
    """
    if a[ao:ao + k] == b[bo:bo + k]:
        return k
    lo, hi = 0, k  # invariant: prefix(lo) equal, prefix(hi) unequal
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[ao:ao + mid] == b[bo:bo + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def span_stats(fcols: Sequence, lcols: Sequence, los: Sequence[int],
               maddr, nrec: int,
               threshold: int) -> Tuple[int, int, int, int]:
    """Per-segment-class totals for ``nrec`` aligned records across lanes.

    ``fcols``/``lcols`` are each lane's first/last-32B-segment columns
    (``msegf``/``msegl``), ``los`` the lane record bases; ``maddr`` and
    ``los[0]`` locate the representative lane's addresses, which decide
    the segment class (``addr >= threshold`` is stack traffic).  Returns
    ``(heap_instructions, heap_transactions, stack_instructions,
    stack_transactions)`` -- accesses are ``instructions * n_lanes``,
    added by the caller.
    """
    fsl = [col[lo:lo + nrec] for col, lo in zip(fcols, los)]
    lsl = [col[lo:lo + nrec] for col, lo in zip(lcols, los)]
    heap_ins = heap_txn = stack_ins = stack_txn = 0
    base = los[0]
    if fsl == lsl:
        # Every access in every lane touches exactly one segment: a
        # record's transaction count is its number of distinct lane
        # segments.
        i = base
        for segs in zip(*fsl):
            txn = len(set(segs))
            if maddr[i] >= threshold:
                stack_ins += 1
                stack_txn += txn
            else:
                heap_ins += 1
                heap_txn += txn
            i += 1
        return heap_ins, heap_txn, stack_ins, stack_txn
    # Some access spans multiple segments: union the per-lane segment
    # ranges, materializing the set only when a lane leaves the
    # representative's run.
    rep_f = fsl[0]
    rep_l = lsl[0]
    n_lanes = len(fsl)
    for i in range(nrec):
        lo_seg = rep_f[i]
        hi_seg = rep_l[i]
        segments = None
        for k in range(1, n_lanes):
            f = fsl[k][i]
            last = lsl[k][i]
            if segments is None:
                if f == lo_seg and last == hi_seg:
                    continue
                segments = set(range(lo_seg, hi_seg + 1))
            segments.update(range(f, last + 1))
        txn = (hi_seg - lo_seg + 1) if segments is None else len(segments)
        if maddr[base + i] >= threshold:
            stack_ins += 1
            stack_txn += txn
        else:
            heap_ins += 1
            heap_txn += txn
    return heap_ins, heap_txn, stack_ins, stack_txn


def solo_span_stats(maddr, msegf, msegl, lo: int, hi: int,
                    threshold: int) -> Tuple[int, int, int, int]:
    """Segment-class totals for one lane's record span ``[lo, hi)``.

    Returns ``(heap_instructions, heap_transactions, stack_instructions,
    stack_transactions)``; a solo access's transaction count is its own
    32-byte segment span length.
    """
    heap_ins = heap_txn = stack_ins = stack_txn = 0
    for j in range(lo, hi):
        txn = msegl[j] - msegf[j] + 1
        if maddr[j] >= threshold:
            stack_ins += 1
            stack_txn += txn
        else:
            heap_ins += 1
            heap_txn += txn
    return heap_ins, heap_txn, stack_ins, stack_txn
