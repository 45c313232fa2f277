"""Metric accumulation for the lock-step replay.

Collects, per warp and aggregated: SIMT (control) efficiency per Eq. 1 of
the paper, per-function *exclusive* efficiency, coalesced 32-byte memory
transactions split by heap/stack segment, lock-serialization counters,
and the replay-observability counters exported through :mod:`repro.obs`
(SIMT-stack depth high-water mark, reconvergence events).

Units, used consistently across every class here:

* **issues** -- warp-level instruction issues: one issue is one
  instruction executed once in lock-step by a warp, regardless of how
  many lanes are active.  Not cycles; no timing model is implied.
* **thread_instructions** -- per-lane dynamic instructions: each issue
  contributes ``n_active_lanes`` thread instructions.  The ratio
  ``thread_instructions / (issues * warp_size)`` is Eq. 1's efficiency.
* **transactions** -- coalesced 32-byte memory transactions
  (:data:`TRANSACTION_BYTES`), the unit of Fig. 10's divergence metric.
* **accesses** -- individual per-lane load/store byte-range touches,
  before coalescing.
* **events** -- occurrence counts (divergence, reconvergence, lock
  events); dimensionless.
* **efficiency** -- a dimensionless fraction in ``[0, 1]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..machine.memory import SEG_HEAP, SEG_STACK, segment_of

#: Memory transaction granularity (bytes), matching GPU 32B sectors.
TRANSACTION_BYTES = 32


def transactions_for(addr_size_pairs: Iterable[Tuple[int, int]]) -> int:
    """Number of 32-byte transactions covering the given accesses.

    This is the coalescing rule from the paper's Fig. 4: the lanes' byte
    ranges are merged and counted in unique 32-byte segments.
    """
    # Fully-coalesced accesses (every lane in one segment run) dominate
    # real traces, so track the first run and only materialize the
    # segment set once a second distinct run appears.
    lo = hi = None
    segments = None
    for addr, size in addr_size_pairs:
        first = addr // TRANSACTION_BYTES
        last = (addr + size - 1) // TRANSACTION_BYTES
        if segments is None:
            if lo is None:
                lo, hi = first, last
                continue
            if first == lo and last == hi:
                continue
            segments = set(range(lo, hi + 1))
        segments.update(range(first, last + 1))
    if segments is not None:
        return len(segments)
    return 0 if lo is None else hi - lo + 1


class FunctionStats:
    """Exclusive (callee-free) lock-step statistics for one function.

    ``issues`` counts warp-level instruction issues attributed to this
    function's own blocks (instructions, not cycles);
    ``thread_instructions`` the per-lane dynamic instructions behind
    them; ``calls`` the number of warp-level activations.
    """

    __slots__ = ("name", "issues", "thread_instructions", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.issues = 0
        self.thread_instructions = 0
        self.calls = 0

    def efficiency(self, warp_size: int) -> float:
        """Exclusive SIMT efficiency (fraction in [0, 1]) per Eq. 1."""
        if self.issues == 0:
            return 1.0
        return self.thread_instructions / (self.issues * warp_size)

    def clone(self) -> "FunctionStats":
        other = FunctionStats(self.name)
        other.issues = self.issues
        other.thread_instructions = self.thread_instructions
        other.calls = self.calls
        return other


class SegmentStats:
    """Memory-divergence counters for one address segment (heap/stack)."""

    __slots__ = ("instructions", "accesses", "transactions")

    def __init__(self) -> None:
        self.instructions = 0   # warp-level load/store issues (instructions)
        self.accesses = 0       # per-lane accesses (touches, pre-coalescing)
        self.transactions = 0   # 32-byte transactions after coalescing

    def transactions_per_instruction(self) -> float:
        """32B transactions per warp-level memory instruction (Fig. 10)."""
        if self.instructions == 0:
            return 0.0
        return self.transactions / self.instructions

    def clone(self) -> "SegmentStats":
        other = SegmentStats()
        other.instructions = self.instructions
        other.accesses = self.accesses
        other.transactions = self.transactions
        return other


class LockStats:
    """Synchronization counters (paper Fig. 9).

    * ``lock_events`` -- warp-level lock acquisitions observed (one per
      distinct lock address per lock-step LOCK, an event count);
    * ``contended_events`` -- lock events where >= 2 lanes of the warp
      contended for the same address;
    * ``serialized_threads`` -- lanes that went through a contended
      acquisition (threads, counted per event);
    * ``serialized_issues`` -- warp-level instruction issues executed at
      mask width 1 inside serialized critical sections (instructions);
    * ``serialized_entries`` -- SIMT-stack entries pushed to serialize
      contended lanes (entries; exported via :mod:`repro.obs`).
    """

    __slots__ = ("lock_events", "contended_events", "serialized_threads",
                 "serialized_issues", "serialized_entries")

    def __init__(self) -> None:
        self.lock_events = 0
        self.contended_events = 0
        self.serialized_threads = 0
        self.serialized_issues = 0
        self.serialized_entries = 0

    def clone(self) -> "LockStats":
        other = LockStats()
        other.lock_events = self.lock_events
        other.contended_events = self.contended_events
        other.serialized_threads = self.serialized_threads
        other.serialized_issues = self.serialized_issues
        other.serialized_entries = self.serialized_entries
        return other


class WarpMetrics:
    """All counters for one warp's replay.

    ``issues`` are warp-level instruction issues and
    ``thread_instructions`` per-lane dynamic instructions (see the module
    docstring for the unit glossary).  ``stack_depth_hwm`` is the
    high-water mark of live SIMT-stack entries across all nested frames
    (entries); ``reconvergence_events`` counts divergent stack entries
    whose lanes reached their reconvergence point (events).
    """

    def __init__(self, warp_size: int) -> None:
        self.warp_size = warp_size
        self.issues = 0
        self.thread_instructions = 0
        self.per_function: Dict[str, FunctionStats] = {}
        self.memory: Dict[str, SegmentStats] = {
            SEG_HEAP: SegmentStats(),
            SEG_STACK: SegmentStats(),
        }
        self.locks = LockStats()
        #: (function, branch block addr) -> times the warp split there.
        self.divergence_events: Dict[Tuple[str, int], int] = {}
        #: Max live SIMT-stack entries at any point of the replay.
        self.stack_depth_hwm = 0
        #: Divergent entries that reached their reconvergence point.
        self.reconvergence_events = 0

    def clone(self) -> "WarpMetrics":
        """A deep copy preserving every dict's insertion order.

        Warp-replay memoization hands out clones of an already-replayed
        warp's metrics; because insertion orders are preserved, merging a
        clone is bit-identical to merging a fresh replay (the aggregate's
        dict orders drive report and telemetry serialization).
        """
        other = WarpMetrics.__new__(WarpMetrics)
        other.warp_size = self.warp_size
        other.issues = self.issues
        other.thread_instructions = self.thread_instructions
        other.per_function = {
            name: stats.clone() for name, stats in self.per_function.items()
        }
        other.memory = {
            segment: stats.clone() for segment, stats in self.memory.items()
        }
        other.locks = self.locks.clone()
        other.divergence_events = dict(self.divergence_events)
        other.stack_depth_hwm = self.stack_depth_hwm
        other.reconvergence_events = self.reconvergence_events
        return other

    # -- accounting hooks used by the replay engine --------------------------

    def function_stats(self, name: str) -> FunctionStats:
        stats = self.per_function.get(name)
        if stats is None:
            stats = FunctionStats(name)
            self.per_function[name] = stats
        return stats

    def account_block(self, function: str, n_instructions: int,
                      n_active: int, serialized: bool = False) -> None:
        """One basic block issued in lock-step.

        ``n_instructions`` is the block's instruction count (each becomes
        one warp-level issue), ``n_active`` the active-lane count (each
        issue contributes that many thread instructions).
        """
        self.issues += n_instructions
        self.thread_instructions += n_instructions * n_active
        stats = self.function_stats(function)
        stats.issues += n_instructions
        stats.thread_instructions += n_instructions * n_active
        if serialized:
            self.locks.serialized_issues += n_instructions

    def account_call(self, function: str) -> None:
        """One warp-level activation of ``function`` (an event count)."""
        self.function_stats(function).calls += 1

    def account_divergence(self, function: str, block_addr: int) -> None:
        """The warp split at ``block_addr`` (one divergence event)."""
        key = (function, block_addr)
        self.divergence_events[key] = self.divergence_events.get(key, 0) + 1

    def account_memory(self, accesses: List[Tuple[int, int]]) -> None:
        """One warp-level memory instruction issue.

        ``accesses`` holds ``(addr, size)`` per active lane; all lanes of
        one instruction target the same segment class by construction
        (stack addresses are per-thread stack slots, heap addresses are
        shared data).
        """
        if not accesses:
            return
        addr = accesses[0][0]
        seg = self.memory[segment_of(addr)]
        seg.instructions += 1
        n = len(accesses)
        seg.accesses += n
        if n == 1:
            # Solo lane: the transaction count is the access's own span.
            size = accesses[0][1]
            seg.transactions += (
                (addr + size - 1) // TRANSACTION_BYTES
                - addr // TRANSACTION_BYTES + 1
            )
        else:
            seg.transactions += transactions_for(accesses)

    def efficiency(self) -> float:
        """Warp SIMT efficiency per the paper's Eq. 1."""
        if self.issues == 0:
            return 1.0
        return self.thread_instructions / (self.issues * self.warp_size)


class AggregateMetrics:
    """Merged metrics over all warps of a workload.

    Produced by merging :class:`WarpMetrics` **in warp-index order** --
    the invariant that makes parallel replay bit-identical to serial
    (see :mod:`repro.core.analyzer`).  Counter units match
    :class:`WarpMetrics`; ``stack_depth_hwm`` is the maximum over warps,
    everything else sums.
    """

    def __init__(self, warp_size: int) -> None:
        self.warp_size = warp_size
        self.n_warps = 0
        self.n_threads = 0
        self.issues = 0
        self.thread_instructions = 0
        self.per_function: Dict[str, FunctionStats] = {}
        self.memory: Dict[str, SegmentStats] = {
            SEG_HEAP: SegmentStats(),
            SEG_STACK: SegmentStats(),
        }
        self.locks = LockStats()
        self.divergence_events: Dict[Tuple[str, int], int] = {}
        self.warp_efficiencies: List[float] = []
        self.stack_depth_hwm = 0
        self.reconvergence_events = 0

    def merge(self, warp: WarpMetrics, n_threads: int) -> None:
        """Fold one warp's counters in (call in warp-index order)."""
        self.n_warps += 1
        self.n_threads += n_threads
        self.issues += warp.issues
        self.thread_instructions += warp.thread_instructions
        self.warp_efficiencies.append(warp.efficiency())
        for name, stats in warp.per_function.items():
            mine = self.per_function.get(name)
            if mine is None:
                mine = FunctionStats(name)
                self.per_function[name] = mine
            mine.issues += stats.issues
            mine.thread_instructions += stats.thread_instructions
            mine.calls += stats.calls
        for seg_name, seg in warp.memory.items():
            mine_seg = self.memory[seg_name]
            mine_seg.instructions += seg.instructions
            mine_seg.accesses += seg.accesses
            mine_seg.transactions += seg.transactions
        for key, count in warp.divergence_events.items():
            self.divergence_events[key] = (
                self.divergence_events.get(key, 0) + count
            )
        self.locks.lock_events += warp.locks.lock_events
        self.locks.contended_events += warp.locks.contended_events
        self.locks.serialized_threads += warp.locks.serialized_threads
        self.locks.serialized_issues += warp.locks.serialized_issues
        self.locks.serialized_entries += warp.locks.serialized_entries
        if warp.stack_depth_hwm > self.stack_depth_hwm:
            self.stack_depth_hwm = warp.stack_depth_hwm
        self.reconvergence_events += warp.reconvergence_events

    def efficiency(self) -> float:
        """Workload SIMT efficiency (instruction-weighted over warps)."""
        if self.issues == 0:
            return 1.0
        return self.thread_instructions / (self.issues * self.warp_size)

    def mean_warp_efficiency(self) -> float:
        """Unweighted average of per-warp efficiencies (paper Sec. III)."""
        if not self.warp_efficiencies:
            return 1.0
        return sum(self.warp_efficiencies) / len(self.warp_efficiencies)

    def total_transactions(self, segment: Optional[str] = None) -> int:
        """Coalesced 32-byte transactions, optionally for one segment."""
        if segment is not None:
            return self.memory[segment].transactions
        return sum(seg.transactions for seg in self.memory.values())

    def transactions_per_memory_instruction(
            self, segment: Optional[str] = None) -> float:
        """32B transactions per warp-level load/store issue (Fig. 10)."""
        if segment is not None:
            return self.memory[segment].transactions_per_instruction()
        instructions = sum(s.instructions for s in self.memory.values())
        if instructions == 0:
            return 0.0
        return self.total_transactions() / instructions
