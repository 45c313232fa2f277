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
from .warptrace import (
    SPACE_GLOBAL,
    KernelTrace,
    WarpInstruction,
    WarpStream,
    space_of,
)


def _mask_of(lanes: Sequence[int]) -> int:
    mask = 0
    for lane in lanes:
        mask |= 1 << lane
    return mask


class WarpTraceVisitor:
    """Replay visitor that records one warp's micro-op stream."""

    def __init__(self, program: Program, stream: WarpStream) -> None:
        self.program = program
        self.stream = stream
        self._pending: Optional[Tuple[int, int, Dict]] = None
        #: Block address -> the block's micro-ops as ``(slot, pc,
        #: op_class)``, decomposed once per static block.
        self._plans: Dict[int, List[Tuple[int, int, str]]] = {}

    # -- replay visitor protocol -------------------------------------------

    def on_issue(self, function: str, block_addr: int, n_instructions: int,
                 lanes: Sequence[int]) -> None:
        self._flush()
        self._pending = (block_addr, _mask_of(lanes), {})

    def on_mem_issue(self, function: str, block_addr: int, slot: int,
                     is_store: bool,
                     accesses: Sequence[Tuple[int, int]]) -> None:
        if self._pending is None or self._pending[0] != block_addr:
            raise RuntimeError("memory issue without a matching block issue")
        self._pending[2][(slot, bool(is_store))] = list(accesses)

    def finish(self) -> None:
        self._flush()

    # -- emission -----------------------------------------------------------

    def _flush(self) -> None:
        if self._pending is None:
            return
        block_addr, mask, mems = self._pending
        self._pending = None
        plan = self._plans.get(block_addr)
        if plan is None:
            block = self.program.block_by_addr[block_addr]
            plan = self._plans[block_addr] = [
                (slot, instr.addr, op_class)
                for slot, instr in enumerate(block.instructions)
                for op_class in decompose(instr)]
        append = self.stream.append
        for slot, pc, op_class in plan:
            if op_class in (classes.LOAD, classes.STORE):
                accesses = mems.get((slot, op_class == classes.STORE))
                if accesses:
                    space = space_of(accesses[0][0])
                else:
                    # A lane-predicated access that produced no record
                    # (should not happen; keep the stream well-formed).
                    space = SPACE_GLOBAL
                    accesses = []
                append(WarpInstruction(pc, op_class, mask, space=space,
                                       accesses=accesses))
            else:
                append(WarpInstruction(pc, op_class, mask))


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
    for visitor in visitors:
        visitor.finish()
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
