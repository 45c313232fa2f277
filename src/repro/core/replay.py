"""Lock-step warp replay with a SIMT reconvergence stack.

This is ThreadFuser's execution-emulation stage: the logical threads fused
into one warp are replayed in lock-step exactly as SIMT hardware would run
them --

* a SIMT stack of ``(pc, rpc, mask)`` entries manages control divergence,
  pushing one entry per divergent target with the reconvergence point set
  to the branch block's IPDOM (paper Sec. II / Fig. 2);
* calls recurse into a fresh per-function frame that reconverges at the
  callee's virtual exit block (the paper's per-function DCFG rule), which
  also yields per-function *exclusive* efficiency attribution;
* threads contending on the same lock are serialized through their
  critical sections via extra stack entries, reconverging after the unlock
  (paper Sec. III, "Synchronization handling");
* every lock-step memory instruction is coalesced into 32-byte
  transactions across the active lanes.

Two replayers implement these rules.  :class:`VectorWarpReplayer` is
the production one: it walks packed columnar traces and consumes whole
converged spans per step.  :class:`WarpReplayer` walks token tuples one
block at a time; it is the reference oracle the parity tests compare
the production path against.

Besides the Eq. 1 counters, the replay records its own observable
behavior into :class:`~repro.core.metrics.WarpMetrics` -- the SIMT-stack
depth high-water mark (live entries across all nested frames), the
number of reconvergence events (divergent entries whose lanes reached
their reconvergence PC), and the stack entries pushed for lock
serialization.  These ride in the per-warp metrics, so they cross the
worker-process boundary of parallel replay and merge deterministically
in warp order like every other counter (exported via :mod:`repro.obs`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..tracer.events import (
    TOK_BLOCK,
    TOK_CALL,
    TOK_LOCK,
    TOK_RET,
    TOK_UNLOCK,
    ThreadTrace,
)
from ..machine.memory import SEG_HEAP, SEG_STACK, STACK_BASE
from ..tracer.packed import (
    CODE_KINDS,
    KIND_B,
    KIND_CALL,
    KIND_LOCK,
    KIND_RET,
    KIND_UNLOCK,
    TRANSACTION_SHIFT,
)
from . import vector
from .dcfg import DCFGSet, VEXIT
from .metrics import TRANSACTION_BYTES, WarpMetrics

# The packed columns carry precomputed per-record 32-byte segment bounds;
# they are only valid if the pack-time shift matches the metrics
# granularity.
assert TRANSACTION_BYTES == 1 << TRANSACTION_SHIFT


class ReplayError(Exception):
    """The trace stream and the DCFG/IPDOM model disagree."""


class _Cursor:
    """A consuming reader over one logical thread's token stream."""

    __slots__ = ("tokens", "pos")

    def __init__(self, trace: ThreadTrace) -> None:
        self.tokens = trace.tokens
        self.pos = 0

    def next(self) -> tuple:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


class _Entry:
    """One SIMT stack entry."""

    __slots__ = ("pc", "rpc", "mask")

    def __init__(self, pc: int, rpc: int, mask: List[int]) -> None:
        self.pc = pc
        self.rpc = rpc
        self.mask = mask

    def __repr__(self) -> str:
        return f"<Entry pc={self.pc:#x} rpc={self.rpc} lanes={self.mask}>"


class WarpReplayer:
    """Replays one warp of logical threads in lock-step.

    Parameters
    ----------
    warp:
        The logical threads fused into this warp (1..warp_size of them).
    dcfgs:
        Per-function DCFGs with IPDOM information already computed.
    warp_size:
        Nominal hardware warp width (the Eq. 1 denominator), which may be
        larger than ``len(warp)`` for a tail warp.
    emulate_locks:
        When True, same-lock critical sections are serialized (the paper's
        intra-warp locking emulation, Fig. 9); when False, lock events are
        consumed without serialization (the fine-grain-locking assumption
        used in the headline efficiency numbers).
    visitor:
        Optional object receiving ``on_issue(function, block_addr,
        n_instructions, lanes)`` and ``on_mem_issue(function, block_addr,
        slot, is_store, lane_accesses)`` callbacks; the warp-trace
        generator (:mod:`repro.tracegen`) plugs in here so simulator traces
        are produced by the *same* replay the metrics come from.
    """

    def __init__(self, warp: Sequence[ThreadTrace], dcfgs: DCFGSet,
                 warp_size: int, emulate_locks: bool = False,
                 visitor=None, lock_reconvergence: str = "unlock") -> None:
        if not warp:
            raise ValueError("cannot replay an empty warp")
        if lock_reconvergence not in ("unlock", "exit"):
            raise ValueError(
                f"unknown lock reconvergence policy {lock_reconvergence!r}"
            )
        self.warp = list(warp)
        self.dcfgs = dcfgs
        self.warp_size = warp_size
        self.emulate_locks = emulate_locks
        self.lock_reconvergence = lock_reconvergence
        self.visitor = visitor
        self.metrics = WarpMetrics(warp_size)
        #: One cursor per lane, indexed by lane number (lanes are dense).
        self.cursors: List[_Cursor] = []
        #: Live SIMT-stack entries summed over all nested frames; its
        #: maximum is the warp's ``stack_depth_hwm`` metric.
        self._depth = 0
        #: Tokens consumed through span paths (only
        #: :class:`VectorWarpReplayer` advances this) out of the warp's
        #: total; the analyzer aggregates them into the
        #: ``replay.vector_*`` telemetry gauges.
        self.vector_tokens = 0
        self.total_tokens = 0

    # ------------------------------------------------------------------

    def run(self) -> WarpMetrics:
        """Replay the whole warp; returns its metrics."""
        # All threads in a warp must run the same worker function, as on a
        # GPU where all threads of a kernel share the same entry.
        roots = {t.root for t in self.warp}
        if len(roots) != 1:
            raise ReplayError(
                f"warp fuses threads with different roots: {sorted(roots)}"
            )
        self.cursors = [_Cursor(trace) for trace in self.warp]
        self.total_tokens = sum(len(c.tokens) for c in self.cursors)
        lanes = list(range(len(self.warp)))
        root = next(iter(roots))
        live = [lane for lane in lanes if not self.cursors[lane].at_end()]
        if live:
            self._replay_frame(root, live)
        for lane in lanes:
            if not self.cursors[lane].at_end():
                raise ReplayError(
                    f"lane {lane} has {len(self.cursors[lane].tokens) - self.cursors[lane].pos} "
                    "unconsumed tokens after replay"
                )
        return self.metrics

    # ------------------------------------------------------------------
    # SIMT-stack bookkeeping: every push/pop funnels through these two
    # helpers so the depth high-water mark and reconvergence counts stay
    # consistent no matter which rule manipulated the stack.

    def _push(self, stack: List[_Entry], entry: _Entry) -> None:
        stack.append(entry)
        self._depth += 1
        if self._depth > self.metrics.stack_depth_hwm:
            self.metrics.stack_depth_hwm = self._depth

    def _pop(self, stack: List[_Entry]) -> _Entry:
        entry = stack.pop()
        self._depth -= 1
        # A pushed (divergent or serialized) entry popping with live
        # lanes means those lanes arrived at their reconvergence PC; the
        # frame's base entry popping is just the activation ending.
        if entry.mask and stack:
            self.metrics.reconvergence_events += 1
        return entry

    # ------------------------------------------------------------------

    def _next_block_of(self, lane: int) -> int:
        """The next block this lane will execute in the current frame."""
        cursor = self.cursors[lane]
        if cursor.pos >= len(cursor.tokens):
            return VEXIT
        token = cursor.tokens[cursor.pos]
        kind = token[0]
        if kind == TOK_BLOCK:
            return token[1]
        if kind == TOK_RET:
            return VEXIT
        raise ReplayError(
            f"lane {lane} has unexpected token {kind!r} at a block "
            "boundary"
        )

    def _ipdom(self, function: str, block: int) -> int:
        dcfg = self.dcfgs[function]
        try:
            return dcfg.ipdom[block]
        except KeyError:
            raise ReplayError(
                f"no IPDOM for block {block:#x} in {function}"
            ) from None

    def _replay_frame(self, function: str, lanes: List[int]) -> None:
        """Replay one function activation for the given lanes.

        On entry every lane's cursor points at the callee's entry block
        token; on exit every lane's cursor sits just past the function's
        RET token (or at stream end for lanes whose thread terminated).
        """
        self.metrics.account_call(function)
        entry = self._next_block_of(lanes[0])
        stack: List[_Entry] = []
        self._push(stack, _Entry(entry, VEXIT, list(lanes)))
        while stack:
            e = stack[-1]
            if not e.mask or e.pc == e.rpc:
                self._pop(stack)
                continue
            if e.pc == VEXIT:
                # Lanes drained to the virtual exit inside a pushed entry.
                self._pop(stack)
                continue
            self._step_entry(function, e, stack)
        # Consume the RET tokens that delimit this activation.
        for lane in lanes:
            cursor = self.cursors[lane]
            pos = cursor.pos
            if pos >= len(cursor.tokens):
                continue  # thread terminated inside this function
            token = cursor.tokens[pos]
            if token[0] == TOK_RET:
                cursor.pos = pos + 1
            else:
                raise ReplayError(
                    f"lane {lane} expected RET leaving {function}, "
                    f"found {token[0]!r}"
                )

    def _step_entry(self, function: str, e: _Entry,
                    stack: List[_Entry]) -> None:
        block_addr = e.pc
        mask = e.mask
        cursors = self.cursors

        # 1. Consume the block token on every active lane, collecting each
        #    lane's memory records as we go (one pass; the coalescer below
        #    reuses these views instead of re-deriving them from cursors).
        rep_token = None
        lane_mems: List[tuple] = []
        for lane in mask:
            cursor = cursors[lane]
            token = cursor.tokens[cursor.pos]
            cursor.pos += 1
            if token[0] != TOK_BLOCK or token[1] != block_addr:
                raise ReplayError(
                    f"lane {lane} diverged from lock-step in {function}: "
                    f"expected block {block_addr:#x}, got {token!r}"
                )
            if rep_token is None:
                rep_token = token
            lane_mems.append(token[3])
        n_instructions = rep_token[2]
        self.metrics.account_block(function, n_instructions, len(mask))
        if self.visitor is not None:
            self.visitor.on_issue(function, block_addr, n_instructions,
                                  list(mask))
        if rep_token[3]:
            self._coalesce_block(function, block_addr, mask, lane_mems,
                                 rep_token[3])

        # 2. Handle post-block events (call / lock / unlock), which the
        #    tracer emits between the terminating block and its successor.
        cursor = cursors[mask[0]]
        follow = (cursor.tokens[cursor.pos]
                  if cursor.pos < len(cursor.tokens) else None)
        if follow is not None and follow[0] == TOK_CALL:
            callee = follow[1]
            for lane in mask:
                cursor = cursors[lane]
                token = cursor.tokens[cursor.pos]
                cursor.pos += 1
                if token[0] != TOK_CALL or token[1] != callee:
                    raise ReplayError(
                        f"lane {lane} expected call to {callee}, "
                        f"got {token!r}"
                    )
            self._replay_frame(callee, list(mask))
        elif follow is not None and follow[0] == TOK_LOCK:
            if self._handle_locks(function, e, stack):
                return  # lock handler already regrouped the entry
        elif follow is not None and follow[0] == TOK_UNLOCK:
            for lane in mask:
                cursor = cursors[lane]
                token = cursor.tokens[cursor.pos]
                cursor.pos += 1
                if token[0] != TOK_UNLOCK:
                    raise ReplayError(
                        f"lane {lane} expected unlock, got {token!r}"
                    )

        # 3. Group lanes by their next block and update the SIMT stack.
        self._regroup(function, e, stack, block_addr)

    def _regroup(self, function: str, e: _Entry, stack: List[_Entry],
                 branch_block: int) -> None:
        """Standard IPDOM divergence handling after executing a block."""
        nexts: Dict[int, List[int]] = {}
        for lane in e.mask:
            nexts.setdefault(self._next_block_of(lane), []).append(lane)
        if len(nexts) == 1:
            e.pc = next(iter(nexts))
            return
        self.metrics.account_divergence(function, branch_block)
        rpc = self._ipdom(function, branch_block)
        e.pc = rpc
        # Push divergent paths; lanes already headed to the reconvergence
        # point simply wait in this entry.
        for target, lanes in nexts.items():
            if target != rpc:
                self._push(stack, _Entry(target, rpc, lanes))

    # ------------------------------------------------------------------
    # Memory coalescing.

    def _coalesce_block(self, function: str, block_addr: int,
                        mask: List[int], lane_mems: List[tuple],
                        rep_mems: tuple) -> None:
        """Coalesce the block's memory records across active lanes.

        ``lane_mems`` holds each active lane's memory-record tuple for the
        block just consumed (parallel to ``mask``); ``rep_mems`` is the
        representative lane's records.  Both were extracted while the
        block tokens were consumed, so no cursor access happens here.
        """
        account_memory = self.metrics.account_memory
        visitor = self.visitor
        if len(mask) == 1:
            # Solo lane: its records are the representative records and
            # cannot misalign with themselves.
            for slot, is_store, addr, size in rep_mems:
                accesses = [(addr, size)]
                account_memory(accesses)
                if visitor is not None:
                    visitor.on_mem_issue(function, block_addr, slot,
                                         is_store, accesses)
            return
        for i, (slot, is_store, _addr, _size) in enumerate(rep_mems):
            accesses: List[Tuple[int, int]] = []
            for lane, mems in zip(mask, lane_mems):
                if i >= len(mems) or mems[i][0] != slot or mems[i][1] != is_store:
                    raise ReplayError(
                        f"memory records misaligned across lanes at block "
                        f"{block_addr:#x} slot {slot}"
                    )
                accesses.append((mems[i][2], mems[i][3]))
            account_memory(accesses)
            if visitor is not None:
                visitor.on_mem_issue(function, block_addr, slot,
                                     is_store, accesses)

    # ------------------------------------------------------------------
    # Lock serialization.

    def _handle_locks(self, function: str, e: _Entry,
                      stack: List[_Entry]) -> bool:
        """Consume LOCK tokens; serialize contended critical sections.

        Returns True when the handler performed its own regrouping (the
        caller must not run the standard one).
        """
        lock_of = self._consume_lock_tokens(e.mask)

        groups: Dict[int, List[int]] = {}
        for lane, addr in lock_of.items():
            groups.setdefault(addr, []).append(lane)
        self.metrics.locks.lock_events += len(groups)

        contended = {a: ls for a, ls in groups.items() if len(ls) > 1}
        if not contended or not self.emulate_locks:
            if contended:
                self.metrics.locks.contended_events += len(contended)
                self.metrics.locks.serialized_threads += sum(
                    len(ls) for ls in contended.values()
                )
            return False  # lock-step continues through the CS

        self.metrics.locks.contended_events += len(contended)
        serialized: List[int] = []
        unlock_blocks = set()
        for addr in sorted(contended):
            lanes = contended[addr]
            self.metrics.locks.serialized_threads += len(lanes)
            for lane in lanes:
                unlock_blocks.add(
                    self._solo_until_unlock(function, lane, addr)
                )
                serialized.append(lane)

        singles = [
            lane for lane in e.mask
            if len(groups[lock_of[lane]]) == 1
        ]

        # Choose the anticipated reconvergence point (paper: one of the
        # unlock pairs; "different choices ... may have varying effects on
        # the control flow efficiency", left to future work -- both
        # policies are implemented here).  "unlock": with a common unlock
        # block its IPDOM is a sound reconvergence point; "exit" (or an
        # irregular locking structure): fall back to the enclosing entry's
        # reconvergence point, serializing the remainder.
        if self.lock_reconvergence == "unlock" and len(unlock_blocks) == 1:
            rpc = self._ipdom(function, next(iter(unlock_blocks)))
        else:
            rpc = e.rpc
        e.pc = rpc

        if singles:
            # Uncontended lanes execute their critical sections together.
            firsts = {self._next_block_of(lane) for lane in singles}
            for target in sorted(firsts):
                group = [l for l in singles
                         if self._next_block_of(l) == target]
                if target != rpc:
                    self._push(stack, _Entry(target, rpc, group))
        for lane in serialized:
            target = self._next_block_of(lane)
            if target != rpc:
                self._push(stack, _Entry(target, rpc, [lane]))
                self.metrics.locks.serialized_entries += 1
        return True

    def _consume_lock_tokens(self, mask: List[int]) -> Dict[int, int]:
        """Consume one LOCK token per active lane; lane -> lock address."""
        lock_of: Dict[int, int] = {}
        for lane in mask:
            cursor = self.cursors[lane]
            token = cursor.tokens[cursor.pos]
            cursor.pos += 1
            if token[0] != TOK_LOCK:
                raise ReplayError(
                    f"lane {lane} expected lock token, got {token!r}"
                )
            lock_of[lane] = token[1]
        return lock_of

    def _solo_until_unlock(self, function: str, lane: int,
                           lock_addr: int) -> int:
        """Serially replay one lane's critical section.

        Consumes tokens until (and including) the UNLOCK of ``lock_addr``;
        returns the address of the block containing the unlock.  Nested
        calls and nested *different* locks are replayed inline.
        """
        cursor = self.cursors[lane]
        tokens = cursor.tokens
        n_tokens = len(tokens)
        pos = cursor.pos
        func_stack = [function]
        last_block = None
        try:
            while True:
                if pos >= n_tokens:
                    raise ReplayError(
                        f"lane {lane} ended while holding lock {lock_addr:#x}"
                    )
                token = tokens[pos]
                pos += 1
                kind = token[0]
                if kind == TOK_BLOCK:
                    last_block = token[1]
                    self.metrics.account_block(
                        func_stack[-1], token[2], 1, serialized=True
                    )
                    if self.visitor is not None:
                        self.visitor.on_issue(func_stack[-1], token[1],
                                              token[2], [lane])
                    for slot, is_store, addr, size in token[3]:
                        self.metrics.account_memory([(addr, size)])
                        if self.visitor is not None:
                            self.visitor.on_mem_issue(
                                func_stack[-1], token[1], slot, is_store,
                                [(addr, size)]
                            )
                elif kind == TOK_CALL:
                    self.metrics.account_call(token[1])
                    func_stack.append(token[1])
                elif kind == TOK_RET:
                    if len(func_stack) == 1:
                        raise ReplayError(
                            f"lane {lane} returned from {function} while "
                            f"holding lock {lock_addr:#x}"
                        )
                    func_stack.pop()
                elif kind == TOK_UNLOCK:
                    if token[1] == lock_addr:
                        if len(func_stack) != 1:
                            raise ReplayError(
                                f"lane {lane} unlocked {lock_addr:#x} in a "
                                "nested call; unsupported locking structure"
                            )
                        return last_block
                elif kind == TOK_LOCK:
                    if token[1] == lock_addr:
                        raise ReplayError(
                            f"lane {lane} re-acquired held lock {lock_addr:#x}"
                        )
                    # A nested different lock inside a serialized CS cannot
                    # contend within the warp (the lane runs alone here).
                else:
                    raise ReplayError(f"unknown token {token!r}")
        finally:
            # The loop advances a local position for speed; publish it on
            # every exit path (return and raise alike).
            cursor.pos = pos


# ----------------------------------------------------------------------
# Production replay over packed columns.


class _PCursor:
    """A consuming reader over one lane's packed columns.

    Flattens the :class:`~repro.tracer.packed.PackedTrace` columns into
    slots so the replay loops do pure index arithmetic -- no tuple
    unpacking, no attribute chains through the packed object.
    """

    __slots__ = ("packed", "pos", "n", "kinds", "arg", "nins", "cumn",
                 "moff", "mslot", "mstore", "maddr", "msize", "names",
                 "msegf", "msegl", "mcnt", "bext")

    def __init__(self, packed) -> None:
        packed.ensure_verified()
        self.packed = packed
        self.pos = 0
        self.n = packed.n_tokens
        self.kinds = packed.kinds
        self.arg = packed.arg
        self.nins = packed.nins
        self.cumn = packed.cumn
        self.moff = packed.moff
        self.mslot = packed.mslot
        self.mstore = packed.mstore
        self.maddr = packed.maddr
        self.msize = packed.msize
        self.names = packed.names
        self.msegf = packed.msegf
        self.msegl = packed.msegl
        self.mcnt = packed.mcnt
        self.bext = packed.bext


class VectorWarpReplayer(WarpReplayer):
    """The production replayer: lock-step replay over packed columns.

    Behaviorally identical to the reference :class:`WarpReplayer` --
    same metrics, same visitor callbacks, same error conditions -- but
    its cursors walk the :class:`~repro.tracer.packed.PackedTrace` int64
    columns directly, and it consumes whole converged spans per step:
    the longest prefix of a ``B``-token run (the ``bext`` column,
    memory blocks included) on which the lanes provably agree.  Equal
    ``arg`` slices make every intermediate regroup convergent and equal
    ``mcnt``/``mslot``/``mstore`` slices make every intermediate block
    aligned, so instruction accounting collapses to one prefix-sum
    subtraction (``cumn``) and 32-byte coalescing is computed from
    whole ``msegf``/``msegl`` slices by :mod:`repro.core.vector`.

    On any disagreement, on spans shorter than :attr:`MIN_SPAN`, and
    whenever a visitor is attached (it needs its per-block callbacks)
    the replayer steps one block at a time, so divergence partitioning,
    lock serialization, record-misalignment handling, and every error
    message match the oracle's; ``tests/test_replay_memo.py`` enforces
    bit-identical reports.  A single-lane entry cannot diverge, so its
    whole leg is swept in one pass (:meth:`_solo_leg`).

    ``vector_tokens`` counts tokens consumed through the span paths;
    together with ``total_tokens`` it feeds the ``replay.vector_*``
    telemetry *gauges* (never counters: the fraction varies with
    ``jobs`` and memo hits while reports and counters stay
    bit-identical).
    """

    #: Minimum representative-lane ``bext`` run for the span step.
    #: Below it the per-lane agreement checks cannot amortize over the
    #: span and the per-block step is faster (measured on the
    #: short-run, divergence-heavy workloads, e.g. pigz); the solo path
    #: has no cross-lane checks and ignores this floor.
    MIN_SPAN = 8

    def run(self) -> WarpMetrics:
        """Replay the whole warp; returns its metrics."""
        roots = {t.root for t in self.warp}
        if len(roots) != 1:
            raise ReplayError(
                f"warp fuses threads with different roots: {sorted(roots)}"
            )
        self.cursors = [_PCursor(trace.packed()) for trace in self.warp]
        self.total_tokens = sum(c.n for c in self.cursors)
        lanes = list(range(len(self.warp)))
        root = next(iter(roots))
        live = [lane for lane in lanes if self.cursors[lane].n > 0]
        if live:
            self._replay_frame(root, live)
        for lane in lanes:
            cursor = self.cursors[lane]
            if cursor.pos < cursor.n:
                raise ReplayError(
                    f"lane {lane} has {cursor.n - cursor.pos} "
                    "unconsumed tokens after replay"
                )
        return self.metrics

    # ------------------------------------------------------------------

    def _next_block_of(self, lane: int) -> int:
        cursor = self.cursors[lane]
        pos = cursor.pos
        if pos >= cursor.n:
            return VEXIT
        kind = cursor.kinds[pos]
        if kind == KIND_B:
            return cursor.arg[pos]
        if kind == KIND_RET:
            return VEXIT
        raise ReplayError(
            f"lane {lane} has unexpected token {CODE_KINDS[kind]!r} at a "
            "block boundary"
        )

    def _replay_frame(self, function: str, lanes: List[int]) -> None:
        self.metrics.account_call(function)
        entry = self._next_block_of(lanes[0])
        if entry != VEXIT:
            # Verify lock-step once per frame: every lane must open on the
            # same entry block.  From here on each entry mask is formed
            # from verified next-token scans (regroup, span slice
            # compares, lock targets), so the stepper consumes blocks
            # unconditionally.
            cursors = self.cursors
            for lane in lanes:
                cursor = cursors[lane]
                pos = cursor.pos
                if cursor.kinds[pos] != KIND_B or cursor.arg[pos] != entry:
                    raise ReplayError(
                        f"lane {lane} diverged from lock-step in "
                        f"{function}: expected block {entry:#x}, "
                        f"got {cursor.packed.token(pos)!r}"
                    )
        stack: List[_Entry] = []
        self._push(stack, _Entry(entry, VEXIT, list(lanes)))
        while stack:
            e = stack[-1]
            if not e.mask or e.pc == e.rpc:
                self._pop(stack)
                continue
            if e.pc == VEXIT:
                self._pop(stack)
                continue
            self._step_entry(function, e, stack)
        for lane in lanes:
            cursor = self.cursors[lane]
            pos = cursor.pos
            if pos >= cursor.n:
                continue  # thread terminated inside this function
            if cursor.kinds[pos] == KIND_RET:
                cursor.pos = pos + 1
            else:
                raise ReplayError(
                    f"lane {lane} expected RET leaving {function}, "
                    f"found {CODE_KINDS[cursor.kinds[pos]]!r}"
                )

    def _step_entry(self, function: str, e: _Entry,
                    stack: List[_Entry]) -> None:
        if self.visitor is None:
            if len(e.mask) == 1:
                self._solo_leg(function, e)
                return
            if self._step_span(function, e, stack):
                return
        self._step_block(function, e, stack)

    def _step_block(self, function: str, e: _Entry,
                    stack: List[_Entry]) -> None:
        """Consume one block on every lane of ``e``, then regroup.

        Lane/stream agreement was verified when this mask was formed
        (frame-entry precheck, regroup scan, span compares), so
        consumption is unconditional.
        """
        block_addr = e.pc
        mask = e.mask
        cursors = self.cursors
        for lane in mask:
            cursors[lane].pos += 1
        rep = cursors[mask[0]]
        rep_pos = rep.pos - 1
        n_instructions = rep.nins[rep_pos]
        self.metrics.account_block(function, n_instructions, len(mask))
        if self.visitor is not None:
            self.visitor.on_issue(function, block_addr, n_instructions,
                                  list(mask))
        if rep.moff[rep_pos + 1] != rep.moff[rep_pos]:
            self._coalesce_lanes(function, block_addr, mask)
        self._post_block(function, e, stack, block_addr)

    def _step_span(self, function: str, e: _Entry,
                   stack: List[_Entry]) -> bool:
        """Consume the longest span every lane of ``e`` agrees on.

        Returns False, having consumed nothing, when no span beyond the
        current block is worth taking; the caller then steps one block.
        """
        mask = e.mask
        cursors = self.cursors
        rep = cursors[mask[0]]
        rep_pos = rep.pos
        run = rep.bext[rep_pos] if rep_pos < rep.n else 0
        if run < self.MIN_SPAN or rep.arg[rep_pos] != e.pc:
            # Too short to amortize the cross-lane span checks, or not
            # sitting on this entry's block token (the per-block step
            # raises the precise stream error for the latter).
            return False
        rpc = e.rpc
        if run > 1 and rpc != VEXIT:
            # The entry must stop at its reconvergence PC so the outer
            # entry replays that block at its wider mask.  Base entries
            # (rpc=VEXIT, where the long spans live) skip the scan.
            cut = vector.first_index(rep.arg, rep_pos + 1,
                                     rep_pos + run, rpc)
            if cut >= 0:
                run = cut - rep_pos
        if run <= 1:
            # No span beyond the current block: the single-block step
            # is both exact and cheaper than the bulk machinery for one
            # token.  (No MIN_SPAN floor here: the preamble and rpc scan
            # are already paid, so consuming even a short span beats
            # re-paying them per stepped block.)
            return False
        # Clamp to the longest prefix every lane shares, block addresses
        # and record shapes alike.  Stepping that prefix one block at a
        # time would regroup convergently at every boundary (equal next
        # addresses) with no event tokens in between (``bext`` runs are
        # all-``B``), so consuming it whole and regrouping once at the
        # end is exact; the first disagreeing block is left to the
        # per-block step, which applies the oracle's alignment rules and
        # error messages.
        # Lanes checked before a later clamp stay valid: agreement on a
        # span implies agreement on every prefix of it.  The common
        # converged case costs two C-speed slice compares per lane;
        # ``prefix_len`` runs only on an actual mismatch.
        n_mask = len(mask)
        rep_lo = rep.moff[rep_pos]
        # A record-free representative span needs no record-shape
        # agreement at all: lanes cannot carry *fewer* records than
        # zero, and the oracle ignores lanes' extra records outright.
        spanned = rep.moff[rep_pos + run] != rep_lo
        ref_arg = rep.arg[rep_pos:rep_pos + run]
        ref_cnt = rep.mcnt[rep_pos:rep_pos + run] if spanned else None
        for i in range(1, n_mask):
            cursor = cursors[mask[i]]
            pos = cursor.pos
            k = cursor.bext[pos]
            if k < run:
                if k <= 1:
                    return False
                run = k
                ref_arg = ref_arg[:k]
                if spanned:
                    ref_cnt = ref_cnt[:k]
            if cursor.arg[pos:pos + run] == ref_arg and (
                    not spanned
                    or cursor.mcnt[pos:pos + run] == ref_cnt):
                continue
            if run <= 32:
                # Short spans (the common intra-run divergence case):
                # an element-wise scan beats slice bisection.
                c_arg = cursor.arg
                c_cnt = cursor.mcnt
                k = 0
                while (c_arg[pos + k] == ref_arg[k]
                       and (not spanned or c_cnt[pos + k] == ref_cnt[k])):
                    k += 1  # the failed slice compare bounds k < run
            else:
                k = vector.prefix_len(rep.arg, rep_pos, cursor.arg,
                                      pos, run)
                if k and spanned:
                    k = vector.prefix_len(rep.mcnt, rep_pos, cursor.mcnt,
                                          pos, k)
            if k <= 1:
                return False
            run = k
            ref_arg = ref_arg[:k]
            if spanned:
                ref_cnt = ref_cnt[:k]
        nrec = rep.moff[rep_pos + run] - rep_lo
        los = [rep_lo]
        if nrec:
            ref_slot = rep.mslot[rep_lo:rep_lo + nrec]
            ref_store = rep.mstore[rep_lo:rep_lo + nrec]
            for i in range(1, n_mask):
                cursor = cursors[mask[i]]
                lo = cursor.moff[cursor.pos]
                if (cursor.mslot[lo:lo + nrec] != ref_slot
                        or cursor.mstore[lo:lo + nrec] != ref_store):
                    # Same addresses and record counts but different
                    # slot/store shapes -- possible only for pathological
                    # streams; the per-block step reproduces the exact
                    # outcome.
                    return False
                los.append(lo)
        self.metrics.account_block(
            function, rep.cumn[rep_pos + run] - rep.cumn[rep_pos], n_mask)
        if nrec:
            self._coalesce_span(mask, los, nrec)
        for lane in mask:
            cursors[lane].pos += run
        self.vector_tokens += run * n_mask
        self._post_block(function, e, stack, rep.arg[rep_pos + run - 1])
        return True

    def _coalesce_span(self, mask: List[int], los: List[int],
                       nrec: int) -> None:
        """Bulk-coalesce an aligned span of memory records across lanes.

        Exact parity with per-record coalescing: each record's
        transaction count is the size of the union of the lanes'
        32-byte segment ranges, computed by :mod:`repro.core.vector` from
        whole ``msegf``/``msegl`` slices; the segment class comes from
        the representative lane's address, as in
        :meth:`~repro.core.metrics.WarpMetrics.account_memory`.
        """
        cursors = self.cursors
        fcols = [cursors[lane].msegf for lane in mask]
        lcols = [cursors[lane].msegl for lane in mask]
        self._add_memory(len(mask), vector.span_stats(
            fcols, lcols, los, cursors[mask[0]].maddr, nrec, STACK_BASE))

    def _add_memory(self, n_lanes: int,
                    stats: Tuple[int, int, int, int]) -> None:
        """Add a :mod:`repro.core.vector` total to the segment counters.

        ``stats`` is ``(heap_instructions, heap_transactions,
        stack_instructions, stack_transactions)`` for records issued at
        ``n_lanes`` active lanes, so each instruction is ``n_lanes``
        accesses.
        """
        heap_ins, heap_txn, stack_ins, stack_txn = stats
        if heap_ins:
            seg = self.metrics.memory[SEG_HEAP]
            seg.instructions += heap_ins
            seg.accesses += heap_ins * n_lanes
            seg.transactions += heap_txn
        if stack_ins:
            seg = self.metrics.memory[SEG_STACK]
            seg.instructions += stack_ins
            seg.accesses += stack_ins * n_lanes
            seg.transactions += stack_txn

    def _solo_leg(self, function: str, e: _Entry) -> None:
        """Consume a single-lane entry's whole leg in one column sweep.

        A solo mask cannot diverge, so the per-block regroup degenerates
        to "pc := next block"; this loop runs the entire leg -- nested
        call frames included -- over maximal ``bext`` spans, records
        included, stopping exactly where per-block stepping would: at
        the entry's reconvergence PC, at the enclosing frame's RET, or
        at stream end.  Metric parity with per-block stepping is exact:
        block accounting is linear, so each function's issues are
        accounted once per frame transition; each span's records are
        accounted in bulk by :mod:`repro.core.vector`; nested frames
        mirror :meth:`_replay_frame`'s stack-depth bookkeeping (their
        base entries pop without reconvergence events); and a solo lock
        acquisition is one uncontended lock event regardless of the
        emulation policy.
        """
        lane = e.mask[0]
        cursor = self.cursors[lane]
        kinds = cursor.kinds
        arg = cursor.arg
        cumn = cursor.cumn
        bext = cursor.bext
        moff = cursor.moff
        maddr = cursor.maddr
        msegf = cursor.msegf
        msegl = cursor.msegl
        names = cursor.names
        n = cursor.n
        pos = cursor.pos
        rpc = e.rpc
        metrics = self.metrics
        depth = 0            # nested activations entered inside the leg
        fstack = [function]  # enclosing function names, innermost last
        pend = 0             # accumulated issues for fstack[-1]
        while True:
            if pos >= n:
                # Thread terminated inside the leg: nested frames unwind
                # (no reconvergence events, matching _replay_frame) and
                # the entry drains at the virtual exit.
                self._depth -= depth
                e.pc = VEXIT
                break
            kind = kinds[pos]
            if kind == KIND_B:
                if depth == 0 and arg[pos] == rpc:
                    e.pc = rpc
                    break
                run = bext[pos]
                if depth == 0 and rpc != VEXIT and run > 1:
                    # Only the enclosing frame can hit the
                    # reconvergence PC; nested frames replay to their
                    # own virtual exit.
                    cut = vector.first_index(arg, pos + 1, pos + run,
                                             rpc)
                    if cut >= 0:
                        run = cut - pos
                pend += cumn[pos + run] - cumn[pos]
                lo = moff[pos]
                hi = moff[pos + run]
                if hi != lo:
                    self._add_memory(1, vector.solo_span_stats(
                        maddr, msegf, msegl, lo, hi, STACK_BASE))
                self.vector_tokens += run
                pos += run
                if pos >= n:
                    continue  # termination handled at the loop top
                # At most one post-block event token follows a block.
                follow = kinds[pos]
                if follow == KIND_CALL:
                    metrics.account_block(fstack[-1], pend, 1)
                    pend = 0
                    callee = names[arg[pos]]
                    pos += 1
                    metrics.account_call(callee)
                    fstack.append(callee)
                    depth += 1
                    self._depth += 1
                    if self._depth > metrics.stack_depth_hwm:
                        metrics.stack_depth_hwm = self._depth
                elif follow == KIND_LOCK:
                    # One lane, one lock address: an uncontended warp
                    # lock event under either emulation policy.
                    metrics.locks.lock_events += 1
                    pos += 1
                elif follow == KIND_UNLOCK:
                    pos += 1
            elif kind == KIND_RET:
                if depth == 0:
                    # The enclosing frame's RET: leave it for the
                    # _replay_frame drain loop.
                    e.pc = VEXIT
                    break
                metrics.account_block(fstack[-1], pend, 1)
                pend = 0
                fstack.pop()
                depth -= 1
                self._depth -= 1
                pos += 1
            else:
                raise ReplayError(
                    f"lane {lane} has unexpected token "
                    f"{CODE_KINDS[kind]!r} at a block boundary"
                )
        metrics.account_block(fstack[-1], pend, 1)
        cursor.pos = pos

    def _regroup(self, function: str, e: _Entry, stack: List[_Entry],
                 branch_block: int) -> None:
        """IPDOM regroup over packed columns.

        The convergent case (every lane's next block identical) resolves
        in one inline scan; on the first mismatch the scan turns into the
        standard partition, continuing from where it stopped so lanes
        are grouped in the same first-seen order as the tuple replayer.
        Malformed streams raise in the same lane order either way.
        """
        cursors = self.cursors
        mask = e.mask
        cursor = cursors[mask[0]]
        pos = cursor.pos
        if pos >= cursor.n:
            first = VEXIT
        else:
            kind = cursor.kinds[pos]
            if kind == KIND_B:
                first = cursor.arg[pos]
            elif kind == KIND_RET:
                first = VEXIT
            else:
                raise ReplayError(
                    f"lane {mask[0]} has unexpected token "
                    f"{CODE_KINDS[kind]!r} at a block boundary"
                )
        n_mask = len(mask)
        i = 1
        nxt = first
        while i < n_mask:
            cursor = cursors[mask[i]]
            pos = cursor.pos
            if pos >= cursor.n:
                nxt = VEXIT
            else:
                kind = cursor.kinds[pos]
                if kind == KIND_B:
                    nxt = cursor.arg[pos]
                elif kind == KIND_RET:
                    nxt = VEXIT
                else:
                    raise ReplayError(
                        f"lane {mask[i]} has unexpected token "
                        f"{CODE_KINDS[kind]!r} at a block boundary"
                    )
            if nxt != first:
                break
            i += 1
        if i == n_mask:
            e.pc = first
            return
        # Divergence: finish the partition (lanes 0..i-1 all shared
        # ``first``; the remaining lanes group by their next block in
        # first-seen order, exactly like the base partition).
        nexts: Dict[int, List[int]] = {first: mask[:i]}
        nexts.setdefault(nxt, []).append(mask[i])
        for j in range(i + 1, n_mask):
            lane = mask[j]
            nexts.setdefault(self._next_block_of(lane), []).append(lane)
        self.metrics.account_divergence(function, branch_block)
        rpc = self._ipdom(function, branch_block)
        e.pc = rpc
        for target, lanes in nexts.items():
            if target != rpc:
                self._push(stack, _Entry(target, rpc, lanes))

    def _post_block(self, function: str, e: _Entry, stack: List[_Entry],
                    branch_block: int) -> None:
        """Post-block events (call/lock/unlock) and the SIMT regroup."""
        cursors = self.cursors
        cursor = cursors[e.mask[0]]
        pos = cursor.pos
        follow = cursor.kinds[pos] if pos < cursor.n else -1
        if follow == KIND_CALL:
            callee = cursor.names[cursor.arg[pos]]
            for lane in e.mask:
                cursor = cursors[lane]
                pos = cursor.pos
                if (cursor.kinds[pos] != KIND_CALL
                        or cursor.names[cursor.arg[pos]] != callee):
                    raise ReplayError(
                        f"lane {lane} expected call to {callee}, "
                        f"got {cursor.packed.token(pos)!r}"
                    )
                cursor.pos = pos + 1
            self._replay_frame(callee, list(e.mask))
        elif follow == KIND_LOCK:
            if self._handle_locks(function, e, stack):
                return  # lock handler already regrouped the entry
        elif follow == KIND_UNLOCK:
            for lane in e.mask:
                cursor = cursors[lane]
                pos = cursor.pos
                if cursor.kinds[pos] != KIND_UNLOCK:
                    raise ReplayError(
                        f"lane {lane} expected unlock, "
                        f"got {cursor.packed.token(pos)!r}"
                    )
                cursor.pos = pos + 1
        self._regroup(function, e, stack, branch_block)

    def _coalesce_lanes(self, function: str, block_addr: int,
                        mask: List[int]) -> None:
        """Coalesce the consumed block's memory records across lanes.

        Every cursor in ``mask`` sits one position past the block token
        it just consumed, so each lane's records are the
        ``moff[pos]:moff[pos + 1]`` column span of its previous
        position.  Without a visitor, aligned lanes are accounted in
        bulk by :meth:`_coalesce_span`; a visitor needs each record's
        ``(addr, size)`` accesses, and misaligned lanes need the
        oracle's error, so both take the per-record loop.
        """
        cursors = self.cursors
        visitor = self.visitor
        rep = cursors[mask[0]]
        rep_pos = rep.pos - 1
        rep_lo = rep.moff[rep_pos]
        nrec = rep.moff[rep_pos + 1] - rep_lo
        if visitor is None:
            # Alignment precheck at C speed: every lane's slot/store
            # column prefix for this block must equal the
            # representative's (lanes may carry extra trailing records,
            # which per-record coalescing never reads).
            ref_slot = rep.mslot[rep_lo:rep_lo + nrec]
            ref_store = rep.mstore[rep_lo:rep_lo + nrec]
            los = [rep_lo]
            for lane in mask[1:]:
                cursor = cursors[lane]
                pos = cursor.pos - 1
                lo = cursor.moff[pos]
                if (cursor.moff[pos + 1] - lo < nrec
                        or cursor.mslot[lo:lo + nrec] != ref_slot
                        or cursor.mstore[lo:lo + nrec] != ref_store):
                    break
                los.append(lo)
            else:
                self._coalesce_span(mask, los, nrec)
                return
            # Misaligned: the per-record loop accounts the aligned
            # prefix and raises the precise error.
        account_memory = self.metrics.account_memory
        lane_spans = []
        for lane in mask:
            cursor = cursors[lane]
            pos = cursor.pos - 1
            lo = cursor.moff[pos]
            lane_spans.append((cursor, lo, cursor.moff[pos + 1] - lo))
        for i in range(nrec):
            slot = rep.mslot[rep_lo + i]
            is_store = rep.mstore[rep_lo + i]
            accesses: List[Tuple[int, int]] = []
            for cursor, lo, count in lane_spans:
                if (i >= count or cursor.mslot[lo + i] != slot
                        or cursor.mstore[lo + i] != is_store):
                    raise ReplayError(
                        f"memory records misaligned across lanes at block "
                        f"{block_addr:#x} slot {slot}"
                    )
                accesses.append((cursor.maddr[lo + i], cursor.msize[lo + i]))
            account_memory(accesses)
            if visitor is not None:
                visitor.on_mem_issue(function, block_addr, slot,
                                     bool(is_store), accesses)

    # ------------------------------------------------------------------
    # Lock serialization over packed columns.

    def _consume_lock_tokens(self, mask: List[int]) -> Dict[int, int]:
        lock_of: Dict[int, int] = {}
        for lane in mask:
            cursor = self.cursors[lane]
            pos = cursor.pos
            if cursor.kinds[pos] != KIND_LOCK:
                raise ReplayError(
                    f"lane {lane} expected lock token, "
                    f"got {cursor.packed.token(pos)!r}"
                )
            lock_of[lane] = cursor.arg[pos]
            cursor.pos = pos + 1
        return lock_of

    def _solo_until_unlock(self, function: str, lane: int,
                           lock_addr: int) -> int:
        cursor = self.cursors[lane]
        kinds, arg, nins = cursor.kinds, cursor.arg, cursor.nins
        moff, mslot, mstore = cursor.moff, cursor.mslot, cursor.mstore
        maddr, msize, names = cursor.maddr, cursor.msize, cursor.names
        msegf, msegl = cursor.msegf, cursor.msegl
        n_tokens = cursor.n
        pos = cursor.pos
        func_stack = [function]
        last_block = None
        account_block = self.metrics.account_block
        account_memory = self.metrics.account_memory
        visitor = self.visitor
        try:
            while True:
                if pos >= n_tokens:
                    raise ReplayError(
                        f"lane {lane} ended while holding lock {lock_addr:#x}"
                    )
                here = pos
                pos += 1
                kind = kinds[here]
                if kind == KIND_B:
                    addr = arg[here]
                    last_block = addr
                    account_block(func_stack[-1], nins[here], 1,
                                  serialized=True)
                    if visitor is None:
                        self._add_memory(1, vector.solo_span_stats(
                            maddr, msegf, msegl, moff[here], moff[here + 1],
                            STACK_BASE))
                    else:
                        visitor.on_issue(func_stack[-1], addr, nins[here],
                                         [lane])
                        for i in range(moff[here], moff[here + 1]):
                            accesses = [(maddr[i], msize[i])]
                            account_memory(accesses)
                            visitor.on_mem_issue(
                                func_stack[-1], addr, mslot[i],
                                bool(mstore[i]), accesses
                            )
                elif kind == KIND_CALL:
                    callee = names[arg[here]]
                    self.metrics.account_call(callee)
                    func_stack.append(callee)
                elif kind == KIND_RET:
                    if len(func_stack) == 1:
                        raise ReplayError(
                            f"lane {lane} returned from {function} while "
                            f"holding lock {lock_addr:#x}"
                        )
                    func_stack.pop()
                elif kind == KIND_UNLOCK:
                    if arg[here] == lock_addr:
                        if len(func_stack) != 1:
                            raise ReplayError(
                                f"lane {lane} unlocked {lock_addr:#x} in a "
                                "nested call; unsupported locking structure"
                            )
                        return last_block
                else:  # KIND_LOCK
                    if arg[here] == lock_addr:
                        raise ReplayError(
                            f"lane {lane} re-acquired held lock "
                            f"{lock_addr:#x}"
                        )
                    # A nested different lock inside a serialized CS cannot
                    # contend within the warp (the lane runs alone here).
        finally:
            # Publish the local position on every exit path.
            cursor.pos = pos
