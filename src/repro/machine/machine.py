"""The MIMD machine: a multithreaded interpreter for the mini ISA.

This plays the role of the CPU under Intel PIN in the paper: it runs the
unmodified workload program with many threads and drives an instrumentation
hook object (the tracer) with exactly the events PIN gives the paper's
tool -- basic-block executions, per-instruction memory accesses, function
calls/returns, lock acquire/release, and skipped spin/I-O instruction
counts.

Scheduling is deterministic round-robin with a configurable quantum, so
every experiment is reproducible bit-for-bit.

Two execution engines share this scheduler (the ``engine`` knob):

* ``"compiled"`` (default) -- each scheduling step runs one generated
  *kernel*, a Python function over a range of a basic block
  (:mod:`repro.machine.compiled`): operands are decoded once, code is
  cached by instruction shape and bound per program, and a native
  variant leaves the hook calls out under :class:`NullHooks`.
* ``"interp"`` -- the seed interpreter: per-instruction dict dispatch
  with operand decoding in ``_read``/``_write``.

Both engines are bit-identical in every observable -- traces, metrics,
counters, error behavior (see ``tests/test_engine_parity.py``) -- so the
choice is purely a throughput knob (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..isa import Op, Reg, Imm, Mem
from ..isa import semantics
from ..program.ir import BasicBlock, Instruction, Program
from .errors import DeadlockError, InstructionLimitError, MachineError
from .memory import Memory, stack_top


class NullHooks:
    """Instrumentation hooks that do nothing (native, untraced execution)."""

    def on_thread_start(self, tid: int, function_name: str) -> None:
        pass

    def on_thread_end(self, tid: int) -> None:
        pass

    def on_block(self, tid: int, block: BasicBlock) -> None:
        pass

    def on_mem(self, tid: int, slot: int, is_store: bool, addr: int,
               size: int) -> None:
        pass

    def on_call(self, tid: int, function_name: str) -> None:
        pass

    def on_ret(self, tid: int) -> None:
        pass

    def on_lock(self, tid: int, lock_addr: int) -> None:
        pass

    def on_unlock(self, tid: int, lock_addr: int) -> None:
        pass

    def on_skip(self, tid: int, count: int, reason: str) -> None:
        pass


class _Frame:
    """A saved caller activation for CALL/RET."""

    __slots__ = ("block", "idx", "regs", "sp", "dst", "function_name")

    def __init__(self, block, idx, regs, sp, dst, function_name) -> None:
        self.block = block
        self.idx = idx
        self.regs = regs
        self.sp = sp
        self.dst = dst
        self.function_name = function_name


class ThreadContext:
    """Architectural state of one hardware thread."""

    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked_lock"
    BLOCKED_BARRIER = "blocked_barrier"
    DONE = "done"

    def __init__(self, tid: int, function, args: Sequence, io_in=None) -> None:
        self.tid = tid
        self.function = function
        self.sp = stack_top(tid) - function.frame_size
        self.regs: List = [0] * max(function.num_regs, 1 + len(args))
        self.regs[0] = self.sp
        for i, value in enumerate(args):
            self.regs[1 + i] = value
        self.block: BasicBlock = function.entry
        self.idx = 0
        self.flags = 0
        self.frames: List[_Frame] = []
        self.state = ThreadContext.RUNNABLE
        self.wait_addr: Optional[int] = None
        self.io_in: List = list(io_in or [])
        #: Read cursor into ``io_in`` (IOREAD consumes by index instead
        #: of popping the list head, which is O(n) per read).
        self.io_pos = 0
        self.io_out: List = []
        self.retval = None
        self.instructions_executed = 0

    def __repr__(self) -> str:
        return f"<Thread {self.tid} {self.state} @{self.block.label}:{self.idx}>"


class Machine:
    """Deterministic round-robin MIMD interpreter.

    Parameters
    ----------
    program:
        A linked :class:`~repro.program.Program`.
    hooks:
        Instrumentation callbacks (see :class:`NullHooks`); the tracer in
        :mod:`repro.tracer` plugs in here.
    quantum:
        Instructions executed per scheduling turn.
    spin_cost / io_cost:
        Untraced instructions charged per failed lock attempt / I-O
        operation -- these feed the paper's skipped-instruction accounting
        (Fig. 8).
    engine:
        ``"compiled"`` (default) runs generated block-range kernels (see
        :mod:`repro.machine.compiled`); ``"interp"`` is the seed
        dict-dispatch interpreter, kept as the reference.  Bit-identical
        results either way.
    """

    def __init__(self, program: Program, hooks=None, quantum: int = 64,
                 spin_cost: int = 25, io_cost: int = 60,
                 max_instructions: int = 200_000_000,
                 engine: str = "compiled") -> None:
        if not program.instr_by_addr:
            raise MachineError("program must be linked before execution")
        if engine not in ("compiled", "interp"):
            raise MachineError(f"unknown execution engine {engine!r}")
        self.program = program
        self.hooks = hooks if hooks is not None else NullHooks()
        self.quantum = quantum
        self.spin_cost = spin_cost
        self.io_cost = io_cost
        self.max_instructions = max_instructions
        self.engine = engine
        self.memory = Memory()
        self.threads: List[ThreadContext] = []
        #: Dynamic instructions executed across all threads (instruction
        #: count, not cycles -- the machine has no timing model).
        self.total_instructions = 0
        #: Memory events: one per load/store touch an instruction makes
        #: (an ``XCHG``/``AADD`` counts two -- its read and its write),
        #: matching the ``on_mem`` hook cadence.  Exported by the
        #: observability layer as ``machine.mem_events``.
        self.mem_events = 0
        #: Threads that reached DONE (incremental liveness bookkeeping:
        #: the scheduler only rebuilds its live list when this moves).
        self._n_done = 0
        self._barrier_waiting: Dict[int, List[ThreadContext]] = {}
        self._lock_holder: Dict[int, int] = {}
        self._dispatch = self._build_dispatch()
        #: Slot of the instruction a compiled kernel failed at (set by
        #: the kernel's exception handler, read by the scheduler).
        self._fault_at = 0
        if engine == "compiled":
            from .compiled import kernel_table
            # Native kernels leave the hook calls out; they apply only
            # to NullHooks itself -- a subclass may override hooks, so
            # it gets the traced variant.
            self._traced = type(self.hooks) is not NullHooks
            self._kernels = kernel_table(program, self._traced)
        else:
            self._kernels = None
        # Initial program break for the ISA-level allocator: one word past
        # all global data (stdlib malloc reads/updates it under its lock).
        self.brk_addr = program.data_end

    def engine_stats(self) -> Dict[str, int]:
        """Compiled-engine gauges exported as telemetry (``engine.*``).

        ``blocks`` counts the program's blocks with a bound kernel and
        ``handlers`` the bound kernels (one per executed block range),
        for this machine's variant.
        """
        if self._kernels is None:
            return {"compiled": 0, "blocks": 0, "handlers": 0}
        from .compiled import kernel_stats
        stats = kernel_stats(self._kernels)
        return {"compiled": 1, "blocks": stats["blocks"],
                "handlers": stats["kernels"]}

    # ------------------------------------------------------------------
    # Thread management.

    def spawn(self, function_name: str, args: Sequence = (),
              io_in: Optional[Sequence] = None) -> ThreadContext:
        """Create a thread running ``function_name(*args)``."""
        function = self.program.functions[function_name]
        if len(args) != function.num_args:
            raise MachineError(
                f"{function_name} expects {function.num_args} args, "
                f"got {len(args)}"
            )
        thread = ThreadContext(len(self.threads), function, args, io_in)
        self.threads.append(thread)
        return thread

    def run(self) -> None:
        """Run all threads to completion (deterministic round-robin).

        The live list is maintained incrementally: completed threads are
        filtered out only on passes where some thread actually finished
        (tracked by ``_n_done``), so a scheduler pass costs O(live)
        rather than O(total threads) -- large launches no longer pay
        quadratic scheduling overhead as threads drain.
        """
        for thread in self.threads:
            if thread.state == ThreadContext.RUNNABLE:
                self.hooks.on_thread_start(thread.tid, thread.function.name)
                self.hooks.on_block(thread.tid, thread.block)
        done = ThreadContext.DONE
        runnable = ThreadContext.RUNNABLE
        blocked_lock = ThreadContext.BLOCKED_LOCK
        # Chosen per run, not stored: a bound method kept on the machine
        # would make it a reference cycle, alive (with its hooks and
        # their traces) until the cyclic collector runs.
        step_quantum = (self._run_quantum if self._kernels is None
                        else self._run_quantum_compiled)
        live = [t for t in self.threads if t.state != done]
        n_done = self._n_done
        while live:
            progressed = False
            for thread in live:
                if thread.state == blocked_lock:
                    self._retry_lock(thread)
                if thread.state != runnable:
                    continue
                progressed = True
                step_quantum(thread)
            if self._n_done != n_done:
                live = [t for t in live if t.state != done]
                n_done = self._n_done
            if live and not progressed:
                blocked = [t.tid for t in live]
                raise DeadlockError(
                    f"no runnable threads; blocked tids={blocked}"
                )

    def _run_quantum(self, thread: ThreadContext) -> None:
        budget = self.quantum
        while budget > 0 and thread.state == ThreadContext.RUNNABLE:
            block = thread.block
            if thread.idx >= len(block.instructions):
                # Fall through to the next block in layout order.
                nxt = self.program.next_block(block)
                if nxt is None:
                    raise MachineError(
                        f"thread {thread.tid} ran off function "
                        f"{block.function.name}"
                    )
                self._enter_block(thread, nxt)
                continue
            instr = block.instructions[thread.idx]
            self._dispatch[instr.op](self, thread, instr)
            budget -= 1
            self.total_instructions += 1
            if self.total_instructions > self.max_instructions:
                raise InstructionLimitError(
                    f"exceeded {self.max_instructions} instructions"
                )

    def _run_quantum_compiled(self, thread: ThreadContext) -> None:
        """One scheduling turn on the compiled engine.

        Each step runs one kernel over ``[idx, stop)`` of the thread's
        block, where ``stop`` is the block end clipped by the budget
        and by the instruction limit (so the step that crosses the
        limit ends on the instruction that crosses it).  A kernel
        leaves ``t.idx``/``t.block``/``t.state`` as the interpreter
        would; on an exception it records the failing slot in
        ``_fault_at``, and the instruction total then counts only the
        instructions before it.  Accounting is identical to
        :meth:`_run_quantum`.
        """
        table = self._kernels
        runnable = ThreadContext.RUNNABLE
        limit = self.max_instructions
        total = self.total_instructions
        # The budget, or one past the instruction limit if nearer.
        room = self.quantum
        if room > limit - total:
            room = limit - total + 1
        left = room
        try:
            while left > 0 and thread.state == runnable:
                block = thread.block
                idx = thread.idx
                try:
                    kernels = table[block]
                except KeyError:
                    from .compiled import BlockKernels
                    kernels = table[block] = BlockKernels(
                        self.program, block, self._traced)
                n = kernels.n
                if idx >= n:
                    # Fall through to the next block in layout order.
                    nxt = kernels.fallthrough
                    if nxt is None:
                        raise MachineError(
                            f"thread {thread.tid} ran off function "
                            f"{block.function.name}"
                        )
                    self._enter_block(thread, nxt)
                    continue
                stop = idx + left
                if stop >= n:
                    stop = n
                    kernel = kernels.full[idx]
                else:
                    kernel = kernels.part.get((idx, stop))
                if kernel is None:
                    kernel = kernels.bind(idx, stop)
                try:
                    kernel(self, thread)
                except BaseException:
                    left -= self._fault_at - idx
                    raise
                left -= stop - idx
        finally:
            total += room - left
            self.total_instructions = total
        if total > limit:
            raise InstructionLimitError(f"exceeded {limit} instructions")

    def _enter_block(self, thread: ThreadContext, block: BasicBlock) -> None:
        thread.block = block
        thread.idx = 0
        self.hooks.on_block(thread.tid, block)

    # ------------------------------------------------------------------
    # Operand evaluation.

    def _ea(self, thread: ThreadContext, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += thread.regs[mem.base.index]
        if mem.index is not None:
            addr += thread.regs[mem.index.index] * mem.scale
        return addr

    def _read(self, thread: ThreadContext, operand, slot: int):
        if isinstance(operand, Reg):
            return thread.regs[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        addr = self._ea(thread, operand)
        self.mem_events += 1
        self.hooks.on_mem(thread.tid, slot, False, addr, operand.size)
        return self.memory.load(addr, operand.size)

    def _write(self, thread: ThreadContext, operand, value, slot: int) -> None:
        if isinstance(operand, Reg):
            thread.regs[operand.index] = value
            return
        if isinstance(operand, Imm):
            raise MachineError("cannot write to an immediate")
        addr = self._ea(thread, operand)
        self.mem_events += 1
        self.hooks.on_mem(thread.tid, slot, True, addr, operand.size)
        self.memory.store(addr, value, operand.size)

    # ------------------------------------------------------------------
    # Instruction semantics.

    def _advance(self, thread: ThreadContext) -> None:
        thread.idx += 1
        thread.instructions_executed += 1

    def _op_mov(self, thread, instr) -> None:
        dst, src = instr.operands
        value = self._read(thread, src, thread.idx)
        self._write(thread, dst, value, thread.idx)
        self._advance(thread)

    def _op_lea(self, thread, instr) -> None:
        dst, src = instr.operands
        thread.regs[dst.index] = self._ea(thread, src)
        self._advance(thread)

    def _binary(self, thread, instr, fn) -> None:
        dst, a, b = instr.operands
        slot = thread.idx
        try:
            result = fn(self._read(thread, a, slot),
                        self._read(thread, b, slot))
        except ZeroDivisionError as exc:
            raise MachineError(str(exc)) from None
        self._write(thread, dst, result, slot)
        self._advance(thread)

    def _unary(self, thread, instr, fn) -> None:
        dst, a = instr.operands
        slot = thread.idx
        result = fn(self._read(thread, a, slot))
        self._write(thread, dst, result, slot)
        self._advance(thread)

    def _op_cmov(self, thread, instr) -> None:
        dst, src = instr.operands
        if semantics.CMOV_TEST[instr.op](thread.flags):
            thread.regs[dst.index] = self._read(thread, src, thread.idx)
        self._advance(thread)

    def _op_cmp(self, thread, instr) -> None:
        a, b = instr.operands
        slot = thread.idx
        av = self._read(thread, a, slot)
        bv = self._read(thread, b, slot)
        thread.flags = semantics.compare(av, bv)
        self._advance(thread)

    def _op_jmp(self, thread, instr) -> None:
        thread.instructions_executed += 1
        self._enter_block(thread, self.program.block_by_addr[instr.target])

    def _op_jcc(self, thread, instr) -> None:
        thread.instructions_executed += 1
        if semantics.JCC_TEST[instr.op](thread.flags):
            self._enter_block(thread, self.program.block_by_addr[instr.target])
        else:
            nxt = self.program.next_block(thread.block)
            if nxt is None:
                raise MachineError("conditional branch falls off function end")
            self._enter_block(thread, nxt)

    def _op_call(self, thread, instr) -> None:
        dst = instr.operands[0]
        slot = thread.idx
        args = [self._read(thread, a, slot) for a in instr.operands[1:]]
        callee_block = self.program.block_by_addr[instr.target]
        callee = callee_block.function
        if len(args) != callee.num_args:
            raise MachineError(
                f"call to {callee.name} with {len(args)} args, "
                f"expects {callee.num_args}"
            )
        thread.instructions_executed += 1
        ret_block = self.program.next_block(thread.block)
        thread.frames.append(
            _Frame(ret_block, 0, thread.regs, thread.sp,
                   dst.index if dst is not None else None,
                   thread.block.function.name)
        )
        thread.sp -= callee.frame_size
        regs = [0] * callee.num_regs
        regs[0] = thread.sp
        for i, value in enumerate(args):
            regs[1 + i] = value
        thread.regs = regs
        self.hooks.on_call(thread.tid, callee.name)
        self._enter_block(thread, callee_block)

    def _op_ret(self, thread, instr) -> None:
        value = (
            self._read(thread, instr.operands[0], thread.idx)
            if instr.operands
            else 0
        )
        thread.instructions_executed += 1
        self.hooks.on_ret(thread.tid)
        if not thread.frames:
            thread.retval = value
            thread.state = ThreadContext.DONE
            self._n_done += 1
            self.hooks.on_thread_end(thread.tid)
            return
        frame = thread.frames.pop()
        thread.regs = frame.regs
        thread.sp = frame.sp
        if frame.dst is not None:
            thread.regs[frame.dst] = value
        if frame.block is None:
            raise MachineError("call site at end of function has no return point")
        self._enter_block(thread, frame.block)

    def _op_halt(self, thread, instr) -> None:
        thread.instructions_executed += 1
        thread.state = ThreadContext.DONE
        self._n_done += 1
        self.hooks.on_thread_end(thread.tid)

    # -- synchronization ------------------------------------------------

    def _lock_addr_of(self, thread, instr) -> int:
        operand = instr.operands[0]
        if isinstance(operand, Mem):
            return self._ea(thread, operand)
        return self._read(thread, operand, thread.idx)

    def _op_lock(self, thread, instr) -> None:
        addr = self._lock_addr_of(thread, instr)
        if self.memory.load(addr) == 0:
            self._acquire(thread, addr)
        else:
            thread.state = ThreadContext.BLOCKED_LOCK
            thread.wait_addr = addr
            self.hooks.on_skip(thread.tid, self.spin_cost, "spin")

    def _retry_lock(self, thread: ThreadContext) -> None:
        addr = thread.wait_addr
        if self.memory.load(addr) == 0:
            self._acquire(thread, addr)
        else:
            self.hooks.on_skip(thread.tid, self.spin_cost, "spin")

    def _acquire(self, thread: ThreadContext, addr: int) -> None:
        self.memory.store(addr, thread.tid + 1)
        self._lock_holder[addr] = thread.tid
        thread.state = ThreadContext.RUNNABLE
        thread.wait_addr = None
        thread.instructions_executed += 1
        self.hooks.on_lock(thread.tid, addr)
        self._leave_terminator(thread)

    def _op_unlock(self, thread, instr) -> None:
        addr = self._lock_addr_of(thread, instr)
        holder = self._lock_holder.get(addr)
        if holder != thread.tid:
            raise MachineError(
                f"thread {thread.tid} unlocking {addr:#x} held by {holder}"
            )
        del self._lock_holder[addr]
        self.memory.store(addr, 0)
        thread.instructions_executed += 1
        self.hooks.on_unlock(thread.tid, addr)
        self._leave_terminator(thread)

    def _op_barrier(self, thread, instr) -> None:
        bar_id = self._read(thread, instr.operands[0], thread.idx)
        waiting = self._barrier_waiting.setdefault(bar_id, [])
        waiting.append(thread)
        thread.instructions_executed += 1
        live = sum(
            1 for t in self.threads if t.state != ThreadContext.DONE
        )
        if len(waiting) >= live:
            for waiter in waiting:
                waiter.state = ThreadContext.RUNNABLE
                self._leave_terminator(waiter)
            self._barrier_waiting[bar_id] = []
        else:
            thread.state = ThreadContext.BLOCKED_BARRIER

    def _leave_terminator(self, thread: ThreadContext) -> None:
        """Continue to the fall-through block after LOCK/UNLOCK/BARRIER."""
        nxt = self.program.next_block(thread.block)
        if nxt is None:
            raise MachineError(
                f"{thread.block.label} terminator has no fall-through"
            )
        self._enter_block(thread, nxt)

    def _op_xchg(self, thread, instr) -> None:
        dst, mem = instr.operands
        slot = thread.idx
        addr = self._ea(thread, mem)
        old = self.memory.load(addr, mem.size)
        self.mem_events += 2
        self.hooks.on_mem(thread.tid, slot, False, addr, mem.size)
        self.hooks.on_mem(thread.tid, slot, True, addr, mem.size)
        self.memory.store(addr, thread.regs[dst.index], mem.size)
        thread.regs[dst.index] = old
        self._advance(thread)

    def _op_aadd(self, thread, instr) -> None:
        dst, mem, src = instr.operands
        slot = thread.idx
        addr = self._ea(thread, mem)
        old = self.memory.load(addr, mem.size)
        self.mem_events += 2
        self.hooks.on_mem(thread.tid, slot, False, addr, mem.size)
        self.hooks.on_mem(thread.tid, slot, True, addr, mem.size)
        self.memory.store(addr, old + self._read(thread, src, slot), mem.size)
        if dst is not None:
            thread.regs[dst.index] = old
        self._advance(thread)

    # -- I/O --------------------------------------------------------------

    def _op_ioread(self, thread, instr) -> None:
        dst = instr.operands[0]
        # Consume by cursor, not list.pop(0): popping the head is O(n)
        # per read, which I/O-heavy workloads pay quadratically.
        pos = thread.io_pos
        if pos < len(thread.io_in):
            value = thread.io_in[pos]
            thread.io_pos = pos + 1
        else:
            value = 0
        thread.regs[dst.index] = value
        self.hooks.on_skip(thread.tid, self.io_cost, "io")
        self._advance(thread)

    def _op_iowrite(self, thread, instr) -> None:
        value = self._read(thread, instr.operands[0], thread.idx)
        thread.io_out.append(value)
        self.hooks.on_skip(thread.tid, self.io_cost, "io")
        self._advance(thread)

    def _op_nop(self, thread, instr) -> None:
        self._advance(thread)

    # ------------------------------------------------------------------

    def _build_dispatch(self):
        m = Machine
        table = {
            Op.MOV: m._op_mov,
            Op.LEA: m._op_lea,
            Op.CMP: m._op_cmp,
            Op.CMOVE: m._op_cmov,
            Op.CMOVNE: m._op_cmov,
            Op.CMOVL: m._op_cmov,
            Op.CMOVLE: m._op_cmov,
            Op.CMOVG: m._op_cmov,
            Op.CMOVGE: m._op_cmov,
            Op.FCMP: m._op_cmp,
            Op.JMP: m._op_jmp,
            Op.JE: m._op_jcc,
            Op.JNE: m._op_jcc,
            Op.JL: m._op_jcc,
            Op.JLE: m._op_jcc,
            Op.JG: m._op_jcc,
            Op.JGE: m._op_jcc,
            Op.CALL: m._op_call,
            Op.RET: m._op_ret,
            Op.HALT: m._op_halt,
            Op.LOCK: m._op_lock,
            Op.UNLOCK: m._op_unlock,
            Op.BARRIER: m._op_barrier,
            Op.XCHG: m._op_xchg,
            Op.AADD: m._op_aadd,
            Op.IOREAD: m._op_ioread,
            Op.IOWRITE: m._op_iowrite,
            Op.NOP: m._op_nop,
        }

        def make_binary(fn):
            def handler(self, thread, instr):
                self._binary(thread, instr, fn)
            return handler

        def make_unary(fn):
            def handler(self, thread, instr):
                self._unary(thread, instr, fn)
            return handler

        for op, fn in semantics.BINARY.items():
            table[op] = make_binary(fn)
        for op, fn in semantics.UNARY.items():
            table[op] = make_unary(fn)
        return table
