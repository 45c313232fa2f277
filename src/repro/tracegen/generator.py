"""Warp-trace generation: replay visitor emitting simulator traces.

The generator plugs into the analyzer's lock-step replay as a visitor, so
the simulator traces come from exactly the execution the efficiency
metrics describe: same warp formation, same SIMT stack, same lock
serialization.  Each lock-step CISC instruction is decomposed into RISC
micro-ops (paper Sec. III, "Generating warp-based instruction traces").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.analyzer import AnalyzerConfig, ThreadFuserAnalyzer
from ..isa import classes
from ..program.ir import Program
from ..tracer.events import TraceSet
from .risc import decompose
from .warptrace import SPACE_GLOBAL, KernelTrace, WarpStream, space_of


def _mask_of(lanes: Sequence[int]) -> int:
    mask = 0
    for lane in lanes:
        mask |= 1 << lane
    return mask


#: The memory entry of a load/store micro-op whose block issue carried
#: no record for it (a lane-predicated access; keeps the stream
#: well-formed).
_NO_RECORD = (SPACE_GLOBAL, ())


class WarpTraceVisitor:
    """Replay visitor that records one warp's micro-op stream.

    ``on_issue`` appends the block's micro-ops to the stream's columns
    in one step, from a plan built the first time the warp issues the
    block; ``on_mem_issue`` then fills in the memory entries of that
    block's load/store micro-ops.
    """

    def __init__(self, program: Program, stream: WarpStream) -> None:
        self.program = program
        self.stream = stream
        #: Block address -> ``(pcs, op_classes, mems, mem_index)``: the
        #: block's micro-op columns, with ``_NO_RECORD`` at each memory
        #: micro-op, and ``(slot, is_store)`` -> that micro-op's offset.
        self._plans: Dict[int, tuple] = {}
        #: The last issued block: its address, its first micro-op's
        #: stream index and its plan's ``mem_index``.
        self._block: Optional[int] = None
        self._base = 0
        self._mem_index: Dict[Tuple[int, bool], int] = {}
        #: Active lanes -> their bitmask; a warp issues few lane sets.
        self._masks: Dict[Tuple[int, ...], int] = {}

    def _plan(self, block_addr: int) -> tuple:
        pcs, ops, mems = [], [], []
        mem_index: Dict[Tuple[int, bool], int] = {}
        block = self.program.block_by_addr[block_addr]
        for slot, instr in enumerate(block.instructions):
            # ``decompose`` emits at most one load and one store per
            # instruction, so ``(slot, is_store)`` names one micro-op.
            for op_class in decompose(instr):
                if op_class in (classes.LOAD, classes.STORE):
                    mem_index[slot, op_class == classes.STORE] = len(ops)
                    mems.append(_NO_RECORD)
                else:
                    mems.append(None)
                pcs.append(instr.addr)
                ops.append(op_class)
        plan = self._plans[block_addr] = (tuple(pcs), tuple(ops),
                                          tuple(mems), mem_index)
        return plan

    # -- replay visitor protocol -------------------------------------------

    def on_issue(self, function: str, block_addr: int, n_instructions: int,
                 lanes: Sequence[int]) -> None:
        plan = self._plans.get(block_addr)
        if plan is None:
            plan = self._plan(block_addr)
        pcs, ops, mems, self._mem_index = plan
        stream = self.stream
        self._block = block_addr
        self._base = len(stream.pc)
        stream.pc.extend(pcs)
        stream.op_class.extend(ops)
        stream.mem.extend(mems)
        key = tuple(lanes)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = _mask_of(lanes)
        stream.mask.extend([mask] * len(pcs))

    def on_mem_issue(self, function: str, block_addr: int, slot: int,
                     is_store: bool,
                     accesses: Sequence[Tuple[int, int]]) -> None:
        if self._block != block_addr:
            raise RuntimeError("memory issue without a matching block issue")
        offset = self._mem_index.get((slot, bool(is_store)))
        if offset is not None:
            self.stream.mem[self._base + offset] = (
                (space_of(accesses[0][0]), tuple(accesses)) if accesses
                else _NO_RECORD)


def generate_kernel_trace(traces: TraceSet, program: Program,
                          warp_size: int = 32, batching: str = "linear",
                          emulate_locks: bool = False,
                          name: Optional[str] = None) -> KernelTrace:
    """Produce a :class:`KernelTrace` for a workload's trace set.

    Runs the full analyzer pipeline with a trace-emitting visitor attached
    to each warp's replay.
    """
    kernel = KernelTrace(name or traces.workload or "kernel", warp_size)
    config = AnalyzerConfig(warp_size=warp_size, batching=batching,
                            emulate_locks=emulate_locks)
    analyzer = ThreadFuserAnalyzer(config)

    # The analyzer hands us the warp index; warp sizes may be ragged at the
    # tail, so pre-compute the warp partition to size the streams.
    from ..core.warp import form_warps

    warps = form_warps(traces, warp_size, batching)
    visitors: List[WarpTraceVisitor] = []
    for warp in warps:
        stream = kernel.new_warp(len(warp))
        visitors.append(WarpTraceVisitor(program, stream))

    def factory(warp_index: int) -> WarpTraceVisitor:
        return visitors[warp_index]

    analyzer.analyze(traces, visitor_factory=factory)
    return kernel


def generate_oracle_kernel_trace(program: Program, kernel_name: str,
                                 args_per_thread, setup=None,
                                 warp_size: int = 32) -> KernelTrace:
    """Capture warp traces from *real* SIMT execution on the GPU oracle.

    This plays the role of nvbit-instrumented trace collection on the
    CUDA implementations (paper Sec. V-A): the oracle executes the clean
    SPMD kernel and the visitor records its warp streams, which can then
    drive the same simulator as the ThreadFuser-generated traces.
    """
    from ..gpuref.oracle import LockstepGPU

    kernel = KernelTrace(f"cuda:{kernel_name}", warp_size)
    gpu = LockstepGPU(program, warp_size=warp_size)
    if setup is not None:
        setup(gpu)
    n = len(args_per_thread)
    n_warps = (n + warp_size - 1) // warp_size
    visitors = []
    for w in range(n_warps):
        n_threads = min(warp_size, n - w * warp_size)
        visitors.append(WarpTraceVisitor(program, kernel.new_warp(n_threads)))

    gpu.run_kernel(kernel_name, args_per_thread,
                   visitor_factory=lambda w: visitors[w])
    return kernel
