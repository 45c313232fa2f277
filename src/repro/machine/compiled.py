"""Block-range kernels: the compiled execution engine.

The reference interpreter (``Machine._run_quantum``) decodes every
dynamic instruction anew: an ``Op`` -> method lookup,
``isinstance``-driven operand decoding in ``_read``/``_write``, and an
effective-address walk over the ``Mem`` attributes.  This module does
that decoding once per executed *range* ``[start, stop)`` of a basic
block and turns the range into one generated Python function, a
*kernel*: straight-line code that reads and writes ``t.regs`` directly,
inlines the block's terminator, and updates ``t.idx`` and
``t.instructions_executed`` once per range.  ``Machine._run_quantum_compiled``
runs one kernel per scheduling step.

Like a binary translator's code cache, the work splits in two:

* **code, cached by shape.**  A block's *shape* is everything that
  changes the generated text: opcodes, register indexes, operand kinds,
  memory-operand sizes, traced or native, and whether a conditional
  branch has a fall-through; with ``start``/``stop`` it fixes a range's
  code.  Each range's code object is compiled once per process and
  kept under its block shape in a bounded LRU cache
  (:data:`KERNEL_CACHE_SIZE` block shapes), so programs built from
  different seeds -- which differ only in data -- share every kernel.
* **values, bound per program.**  Immediates, displacements, scales,
  branch targets, callee frames and ``repro.isa.semantics`` functions
  live in one globals dict per block (names carry the instruction's
  slot, e.g. ``v3_2`` is operand 2 of slot 3), and each kernel of the
  block is a function over that dict.  Bound kernels are kept on the
  program (``Program.compiled_cache``, cleared by ``link()``).

Only ``int`` values (register indexes, slots, sizes) and tokens from
this module's own tables ever reach the generated source; no program
value is spliced into it.  An operator is inlined only where the
expression is exactly its ``repro.isa.semantics`` lambda body (ADD is
``a + b``); every other operator calls the bound semantics function.
LOCK, UNLOCK, BARRIER, the opcodes no workload loops on (XCHG, AADD,
LEA, NOP, HALT, IOREAD, IOWRITE) and operands outside the generated
forms run the interpreter's own ``Machine._op_*`` method, as a binary
translator calls a helper for the instructions that carry no traffic.

Two variants exist per program: **traced** kernels record at the
interpreter's hook points; **native** kernels -- used when the hooks are
exactly :class:`~repro.machine.machine.NullHooks` -- leave the no-op
calls out and keep every counter.  Traced kernels need the tracer's
``live`` map (``m._live``; the machine rejects hooks without one) and
split their hook points the way PIN splits ``INS_InsertIfCall`` from
``INS_InsertThenCall``: read once at range entry, the thread's entry
(there while its trace is open and no excluded function is active)
lets memory accesses and block entries append their
:class:`~repro.tracer.packed.ColumnWriter` rows inline, stack rebasing
spliced in (:func:`~repro.machine.memory.stack_rebase_source`).
Without it a memory access records nothing, as ``on_mem`` would, and a
block entry calls ``on_block``.  After CALL or RET the entry is read
again, since those hooks open, close and suspend traces.  Calls,
returns, lock events and thread ends call the hooks, so
:class:`~repro.tracer.recorder.TraceRecorder` keeps the one definition
of trace open and close, exclusion and skips.

Error state is exact: a local holds the slot of the current
instruction, and on any exception the kernel sets ``t.idx``, adds the
instructions already executed, flushes ``mem_events``, records the
slot in ``machine._fault_at`` (the scheduler's instruction total) and
re-raises -- a memory row value outside int64 as the
``OverflowError`` the writer raises.  Both variants are bit-identical
to the interpreter in every observable (``tests/test_engine_parity.py``,
``tests/test_machine_edge.py``, ``tests/test_differential_fuzz.py``).
"""

from __future__ import annotations

import builtins
import functools
import struct
import types
from typing import Dict, List, Optional, Tuple

from ..isa import BLOCK_TERMINATORS, Imm, Mem, Op, Reg
from ..isa import semantics
from ..program.ir import BasicBlock, Program
from ..tracer.packed import KIND_B, MEM_ROW, TOKEN_ROW, row_error
from .errors import MachineError
from .machine import Machine, ThreadContext, _Frame
from .memory import stack_rebase_source

#: Block shapes whose kernel code is kept per process.
KERNEL_CACHE_SIZE = 2048

#: Operators whose ``repro.isa.semantics`` lambda body is inlined
#: verbatim (``{0}``/``{1}`` are the operands; the test suite checks
#: each template against the lambda's source).
INLINE_BINARY: Dict[Op, str] = {
    Op.ADD: "{0} + {1}",
    Op.SUB: "{0} - {1}",
    Op.IMUL: "{0} * {1}",
    Op.AND: "{0} & {1}",
    Op.OR: "{0} | {1}",
    Op.XOR: "{0} ^ {1}",
    Op.SHL: "{0} << {1}",
    Op.SHR: "{0} >> {1}",
    Op.FADD: "{0} + {1}",
    Op.FSUB: "{0} - {1}",
    Op.FMUL: "{0} * {1}",
}
INLINE_UNARY: Dict[Op, str] = {
    Op.NOT: "~{0}",
    Op.NEG: "-{0}",
    Op.FNEG: "-{0}",
}
INLINE_TEST: Dict[Op, str] = {
    Op.JE: "{0} == 0",
    Op.JNE: "{0} != 0",
    Op.JL: "{0} < 0",
    Op.JLE: "{0} <= 0",
    Op.JG: "{0} > 0",
    Op.JGE: "{0} >= 0",
    Op.CMOVE: "{0} == 0",
    Op.CMOVNE: "{0} != 0",
    Op.CMOVL: "{0} < 0",
    Op.CMOVLE: "{0} <= 0",
    Op.CMOVG: "{0} > 0",
    Op.CMOVGE: "{0} >= 0",
}
#: ``semantics.compare``'s body (CMP/FCMP).
INLINE_COMPARE = "({0} > {1}) - ({0} < {1})"


class BlockKernels:
    """The bound kernels of one basic block, for one engine variant.

    ``n`` is the block's length; a terminator can only be its last
    instruction (``ProgramBuilder`` and every optimizer pass keep this).
    ``fallthrough`` is the next block in layout order, entered when a
    block without a terminator runs out.  ``full[start]`` holds the
    kernel of ``[start, n)``, ``part[(start, stop)]`` the clipped ones.
    """

    __slots__ = ("n", "fallthrough", "full", "part", "_program", "_block",
                 "_traced", "_codes", "_env")

    def __init__(self, program: Program, block: BasicBlock,
                 traced: bool) -> None:
        self.n = n = len(block.instructions)
        self.fallthrough = (program.next_block(block)
                            if not block.is_terminated() else None)
        self.full: List = [None] * n
        self.part: Dict[Tuple[int, int], object] = {}
        self._program = program
        self._block = block
        self._traced = traced
        self._codes: Optional[_BlockCodes] = None
        self._env: Optional[dict] = None

    def bind(self, start: int, stop: int):
        """The kernel of ``[start, stop)``, bound on first use."""
        if self._codes is None:
            shapes, self._env = _describe_block(self._program,
                                                self._block)
            self._codes = _block_codes(self._traced, shapes)
        code = self._codes.get((start, stop))
        if code is None:
            code = self._codes.compile(start, stop)
        kernel = types.FunctionType(code, self._env)
        if stop == self.n:
            self.full[start] = kernel
        else:
            self.part[(start, stop)] = kernel
        return kernel

    def bound(self) -> int:
        """How many kernels of this block are bound."""
        return len(self.part) + sum(k is not None for k in self.full)


def kernel_table(program: Program, traced: bool) -> Dict[BasicBlock,
                                                       BlockKernels]:
    """The ``block -> BlockKernels`` table of one variant, cached on
    ``program``.  The machine adds a block's entry on its first
    execution, so a program pays only for the blocks it runs."""
    key = "traced" if traced else "native"
    table = program.compiled_cache.get(key)
    if table is None:
        table = program.compiled_cache[key] = {}
    return table


def kernel_stats(table: Dict[BasicBlock, BlockKernels]) -> Dict[str, int]:
    """Blocks with a bound kernel, and bound kernels in all."""
    counts = [kernels.bound() for kernels in table.values()]
    return {"blocks": sum(1 for c in counts if c), "kernels": sum(counts)}


# ----------------------------------------------------------------------
# What every kernel's globals hold besides the block's bound values.

def _fault(machine, thread, i: int, counted_from: int, events: int) -> None:
    """A kernel's exception path, before it re-raises.

    ``i`` is the failing slot, or ``~slot`` when that slot's count was
    already committed (a terminator's hooks or its fall-off check).
    The thread is left at the failing slot with the instructions before
    it counted, ``mem_events`` gets the events not yet added, and the
    slot goes to ``machine._fault_at`` for the scheduler's total.
    """
    if i >= 0:
        thread.idx = i
        thread.instructions_executed += i - counted_from
        machine.mem_events += events
        machine._fault_at = i
    else:
        machine._fault_at = ~i


#: The interpreter's ``Op -> Machine._op_*`` table (delegated slots).
_SEED_DISPATCH = Machine._build_dispatch(Machine)
#: The names every kernel's globals share.
_BASE_ENV = {"__builtins__": builtins.__dict__, "ME": MachineError,
             "FR": _Frame, "DONE": ThreadContext.DONE, "FAULT": _fault,
             "MR": MEM_ROW.pack, "TR": TOKEN_ROW.pack, "SE": struct.error,
             "RE": row_error}


# ----------------------------------------------------------------------
# Describing a block: per-instruction shapes plus the bound values.

_IMM = ("i",)


def _operand(operand, k: int, o: int, env: dict):
    """The shape of operand ``o`` of slot ``k``; binds its values.

    ``None`` when the operand fits no generated form (the instruction is
    then delegated to the interpreter).
    """
    kind = type(operand)
    if kind is Reg:
        index = operand.index
        return ("r", index) if type(index) is int else None
    if kind is Imm:
        env[f"v{k}_{o}"] = operand.value
        return _IMM
    if kind is not Mem:
        return None
    base = operand.base
    if base is not None:
        if type(base) is not Reg or type(base.index) is not int:
            return None
        base = base.index
    index = operand.index
    if index is not None:
        if type(index) is not Reg or type(index.index) is not int:
            return None
        index = index.index
        env[f"s{k}_{o}"] = operand.scale
    if type(operand.size) is not int:
        return None
    env[f"d{k}_{o}"] = operand.disp
    return ("m", base, index, operand.size)


def _register(operand) -> Optional[int]:
    """The index of a plain register operand, else ``None``."""
    if type(operand) is Reg and type(operand.index) is int:
        return operand.index
    return None


def _fixed(kind: str, count: int):
    """Describer of an opcode over exactly ``count`` generic operands."""
    def describe(program, block, k, instr, env):
        operands = instr.operands
        if len(operands) != count:
            return None
        shapes = [_operand(op, k, o, env) for o, op in enumerate(operands)]
        if None in shapes:
            return None
        return (kind, int(instr.op)) + tuple(shapes)
    return describe


def _d_scalar(kind: str, count: int, inline: Dict[Op, str]):
    """Describer of a BINARY/UNARY opcode; binds its semantics function."""
    generic = _fixed(kind, count)

    def describe(program, block, k, instr, env):
        if instr.op not in inline:
            env[f"f{k}"] = semantics.scalar_fn(instr.op)
        return generic(program, block, k, instr, env)
    return describe


def _d_cmov(program, block, k, instr, env):
    operands = instr.operands
    if len(operands) != 2:
        return None
    dst = _register(operands[0])
    src = _operand(operands[1], k, 1, env)
    if dst is None or src is None:
        return None
    return ("cmov", int(instr.op), dst, src)


def _d_branch(program, block, k, instr, env):
    target = program.block_by_addr.get(instr.target)
    if target is None:
        return None
    _bind_block(env, f"T{k}", target)
    if instr.op == Op.JMP:
        return ("jmp",)
    fallthrough = program.next_block(block)
    _bind_block(env, f"N{k}", fallthrough)
    return ("jcc", int(instr.op), fallthrough is not None)


def _bind_block(env: dict, name: str, block: Optional[BasicBlock]) -> None:
    """Bind a branch target and the fields of its block token row."""
    env[name] = block
    if block is not None:
        env[f"{name}_a"] = block.addr
        env[f"{name}_n"] = len(block.instructions)


def _d_call(program, block, k, instr, env):
    operands = instr.operands
    if not operands:
        return None
    dst = operands[0]
    if dst is not None:
        dst = _register(dst)
        if dst is None:
            return None
    callee_block = program.block_by_addr.get(instr.target)
    if callee_block is None:
        return None
    callee = callee_block.function
    args = tuple(_operand(a, k, o, env)
                 for o, a in enumerate(operands[1:], start=1))
    # A wrong argument count, or a callee frame too small for its
    # arguments, fails inside the interpreter's CALL: delegate so the
    # failure happens at the same point.
    if (None in args or len(args) != callee.num_args
            or callee.num_regs < 1 + len(args)):
        return None
    _bind_block(env, f"B{k}", callee_block)
    env[f"R{k}"] = program.next_block(block)
    env[f"FS{k}"] = callee.frame_size
    env[f"NR{k}"] = callee.num_regs
    env[f"CN{k}"] = callee.name
    env[f"FN{k}"] = block.function.name
    return ("call", dst, args)


def _d_ret(program, block, k, instr, env):
    if not instr.operands:
        return ("ret", None)
    value = _operand(instr.operands[0], k, 0, env)
    return ("ret", value) if value is not None else None


#: ``Op -> describer(program, block, slot, instr, env) -> shape | None``
#: (``None``, or no entry: the slot runs through the interpreter's method).
_DESCRIBE = {
    Op.MOV: _fixed("mov", 2),
    Op.CMP: _fixed("cmp", 2),
    Op.FCMP: _fixed("cmp", 2),
    Op.JMP: _d_branch,
    Op.CALL: _d_call,
    Op.RET: _d_ret,
}
_DESCRIBE.update({op: _d_scalar("bin", 3, INLINE_BINARY)
                  for op in semantics.BINARY})
_DESCRIBE.update({op: _d_scalar("un", 2, INLINE_UNARY)
                  for op in semantics.UNARY})
_DESCRIBE.update({op: _d_cmov for op in semantics.CMOV_TEST})
_DESCRIBE.update({op: _d_branch for op in semantics.JCC_TEST})


def _describe_block(program: Program,
                    block: BasicBlock) -> Tuple[tuple, dict]:
    """Per-slot shapes of ``block`` and the block's globals dict."""
    env = dict(_BASE_ENV)
    shapes = []
    for k, instr in enumerate(block.instructions):
        describe = _DESCRIBE.get(instr.op)
        shape = describe and describe(program, block, k, instr, env)
        if shape is None:
            env[f"X{k}"] = _SEED_DISPATCH[instr.op]
            env[f"I{k}"] = instr
            shape = ("delegate", instr.op in BLOCK_TERMINATORS)
        shapes.append(shape)
    return tuple(shapes), env


# ----------------------------------------------------------------------
# Generating a kernel from a range shape.

_TERMINATOR_SHAPES = frozenset({"jmp", "jcc", "call", "ret"})


class _Emitter:
    """Writes one kernel's source.

    Locals of the generated function: ``r`` (``t.regs``), ``tid``,
    ``hk`` (the hooks), ``mem`` (the memory), ``me`` (memory events not
    yet added to ``m.mem_events``), ``i`` (slot of the current
    instruction, ``~slot`` once its count is committed) and ``s`` (the
    slot ``t.instructions_executed`` is counted from, after a delegate).
    Traced kernels add ``lv`` (the thread's live entry or ``None``)
    and, while it is there, ``w``/``sb`` (its writer and stack base)
    and ``tb``/``mb`` (the writer's token and memory rows).
    """

    def __init__(self, traced: bool, start: int) -> None:
        self.traced = traced
        self.start = start
        self.lines: List[str] = []
        self.depth = 2
        #: Whether the kernel touches memory (the ``mem``/``me`` locals).
        self.uses_mem = False
        self.uses_hooks = False
        self.delegates = False
        #: Whether the kernel appends memory rows / block token rows.
        self.inline_mem = False
        self.inline_blocks = False
        #: Slot the static count starts from (moves past a delegate).
        self.seg = start

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def hook(self, call: str) -> None:
        if self.traced:
            self.uses_hooks = True
            self.line(f"hk.{call}")

    def ea(self, k: int, o: int, shape) -> str:
        """The effective address, in ``Machine._ea``'s order."""
        _m, base, index, _size = shape
        expr = f"d{k}_{o}"
        if base is not None:
            expr += f" + r[{base}]"
        if index is not None:
            expr += f" + r[{index}] * s{k}_{o}"
        return expr

    def record(self, k: int, is_store: bool, addr: str, size: int) -> None:
        """The memory row of slot ``k`` at ``addr``, for a live thread.

        The row is :meth:`ColumnWriter.mem` after the recorder's stack
        rebasing (``TraceRecorder.on_mem``); a thread that is not live
        records nothing, as ``on_mem`` does.
        """
        if not self.traced:
            return
        self.inline_mem = True
        self.line("if lv is not None:")
        self.line(f"    mb += MR({k}, {int(is_store)}, "
                  f"{stack_rebase_source(addr, 'sb')}, {size})")

    def access(self, k: int, o: int, shape, is_store: bool, addr: str,
               value: str = "") -> None:
        """One counted, recorded load/store (``Machine._read``/``_write``)."""
        size = shape[3]
        self.uses_mem = True
        self.line(f"{addr} = {self.ea(k, o, shape)}")
        self.line("me += 1")
        self.record(k, is_store, addr, size)
        if is_store:
            self.line(f"mem.store({addr}, {value}, {size})")

    def read(self, k: int, o: int, shape, tmp: str, addr: str = "a") -> str:
        """An expression for operand ``o``; memory lands in ``tmp``."""
        kind = shape[0]
        if kind == "r":
            return f"r[{shape[1]}]"
        if kind == "i":
            return f"v{k}_{o}"
        self.access(k, o, shape, False, addr)
        self.line(f"{tmp} = mem.load({addr}, {shape[3]})")
        return tmp

    def write(self, k: int, o: int, shape, value: str) -> None:
        """Store ``value`` (evaluated first) into operand ``o``."""
        kind = shape[0]
        if kind == "r":
            self.line(f"r[{shape[1]}] = {value}")
            return
        if value != "y":
            self.line(f"y = {value}")
        if kind == "i":
            self.line('raise ME("cannot write to an immediate")')
            return
        self.access(k, o, shape, True, "a", "y")

    # -- instructions ----------------------------------------------------

    def instruction(self, k: int, shape) -> None:
        getattr(self, "_" + shape[0])(k, shape)

    def _mov(self, k, shape):
        _t, _op, dst, src = shape
        if dst[0] == "r" and src[0] == "m":
            # A load: the value goes straight into the register.
            self.access(k, 1, src, False, "a")
            self.line(f"r[{dst[1]}] = mem.load(a, {src[3]})")
            return
        self.write(k, 0, dst, self.read(k, 1, src, "x"))

    def _bin(self, k, shape):
        _t, op, dst, a, b = shape
        op = Op(op)
        guarded = op in semantics.RAISES_ZERO_DIVIDE
        if guarded:
            self.line("try:")
            self.depth += 1
        x = self.read(k, 1, a, "x")
        if a[0] == "r" and b[0] == "m":
            # Read the register before the memory operand, as
            # ``Machine._read`` does (an out-of-range index fails first).
            self.line(f"x = {x}")
            x = "x"
        z = self.read(k, 2, b, "z", "b")
        template = INLINE_BINARY.get(op)
        expr = template.format(x, z) if template else f"f{k}({x}, {z})"
        if guarded:
            self.line(f"y = {expr}")
            self.depth -= 1
            self.line("except ZeroDivisionError as exc:")
            self.line("    raise ME(str(exc)) from None")
            expr = "y"
        self.write(k, 0, dst, expr)

    def _un(self, k, shape):
        _t, op, dst, a = shape
        x = self.read(k, 1, a, "x")
        template = INLINE_UNARY.get(Op(op))
        self.write(k, 0, dst, template.format(x) if template
                   else f"f{k}({x})")

    def _cmov(self, k, shape):
        _t, op, dst, src = shape
        self.line(f"if {INLINE_TEST[Op(op)].format('t.flags')}:")
        self.depth += 1
        self.line(f"r[{dst}] = {self.read(k, 1, src, 'x')}")
        self.depth -= 1

    def _cmp(self, k, shape):
        _t, _op, a, b = shape
        self.line(f"p = {self.read(k, 0, a, 'x')}")
        self.line(f"q = {self.read(k, 1, b, 'z', 'b')}")
        self.line(f"t.flags = {INLINE_COMPARE.format('p', 'q')}")

    def _delegate(self, k, shape):
        """Run slot ``k`` through ``Machine._op_*`` mid-range."""
        self.delegates = True
        self.flush(k)
        self.line(f"s = {k}")
        self.line(f"X{k}(m, t, I{k})")
        self.line(f"s = {k + 1}")
        self.seg = k + 1

    def flush(self, k: int) -> None:
        """Bring ``t.idx``, the count and ``mem_events`` up to slot ``k``."""
        if k != self.start:
            self.line(f"t.idx = {k}")
        if k > self.seg:
            self.line(f"t.instructions_executed += {k - self.seg}")
        if self.uses_mem:
            self.line("m.mem_events += me")
            self.line("me = 0")

    # -- terminators -------------------------------------------------------

    def commit(self, k: int) -> None:
        """Count slots up to and including terminator ``k``."""
        if self.uses_mem:
            self.line("m.mem_events += me")
        self.line(f"t.instructions_executed += {k - self.seg + 1}")
        self.line(f"i = {~k}")

    def enter(self, block: str, fields: str = "") -> None:
        """``Machine._enter_block``, appending a live thread's block
        token row instead of calling the hook.

        ``fields`` is the row's address and instruction count after a
        CALL or RET, whose hooks may open, close or suspend the trace:
        the thread's entry is read again.  Otherwise (JMP, Jcc) the
        entry read at range entry still holds and the fields are bound.
        """
        self.line(f"t.block = {block}")
        self.line("t.idx = 0")
        if not self.traced:
            return
        self.uses_hooks = True
        reread = bool(fields)
        if reread:
            self.line("lv = m._live.get(tid)")
        else:
            self.inline_blocks = True
            fields = f"{block}_a, {block}_n"
        self.line("if lv is None:")
        self.line(f"    hk.on_block(tid, {block})")
        self.line("else:")
        if reread:
            self.line("    w = lv[0]")
            rows, mrows = "w.rows", "w.mrows"
        else:
            rows, mrows = "tb", "mb"
        self.line(f"    {rows} += TR({KIND_B}, {fields}, "
                  f"len({mrows}) // {MEM_ROW.size})")

    def terminator(self, k: int, shape) -> None:
        kind = shape[0]
        reads = shape[2] if kind == "call" else (
            kind == "ret" and shape[1] is not None)
        if reads and k != self.start:
            # Its operand reads can fail before its count is committed.
            self.line(f"i = {k}")
        if kind == "call":
            _t, dst, args = shape
            for o, arg in enumerate(args, start=1):
                value = self.read(k, o, arg, f"g{o}")
                if value != f"g{o}":
                    self.line(f"g{o} = {value}")
        elif kind == "ret" and shape[1] is not None:
            value = self.read(k, 0, shape[1], "v")
            if value != "v":
                self.line(f"v = {value}")
        self.commit(k)
        here = f"t.idx = {k}" if k != self.start else ""
        if kind == "jmp":
            self.enter(f"T{k}")
        elif kind == "jcc":
            _t, op, has_fallthrough = shape
            self.line(f"if {INLINE_TEST[Op(op)].format('t.flags')}:")
            self.depth += 1
            self.enter(f"T{k}")
            self.depth -= 1
            self.line("else:")
            self.depth += 1
            if has_fallthrough:
                self.enter(f"N{k}")
            else:
                if here:
                    self.line(here)
                self.line('raise ME("conditional branch falls off '
                          'function end")')
            self.depth -= 1
        elif kind == "call":
            dst = shape[1]
            self.line(f"t.frames.append(FR(R{k}, 0, r, t.sp, {dst!r}, "
                      f"FN{k}))")
            self.line(f"sp = t.sp - FS{k}")
            self.line("t.sp = sp")
            self.line(f"nr = [0] * NR{k}")
            self.line("nr[0] = sp")
            for o in range(1, len(shape[2]) + 1):
                self.line(f"nr[{o}] = g{o}")
            self.line("t.regs = nr")
            if self.traced and here:
                self.line(here)
            self.hook(f"on_call(tid, CN{k})")
            self.enter(f"B{k}", f"B{k}_a, B{k}_n")
        else:
            self._ret(shape, here)

    def _ret(self, shape, here: str) -> None:
        value = "v" if shape[1] is not None else "0"
        if self.traced and here:
            self.line(here)
            here = ""
        self.hook("on_ret(tid)")
        self.line("frames = t.frames")
        self.line("if not frames:")
        self.depth += 1
        if here:
            self.line(here)
        self.line(f"t.retval = {value}")
        self.line("t.state = DONE")
        self.line("m._n_done += 1")
        self.hook("on_thread_end(tid)")
        self.line("return")
        self.depth -= 1
        self.line("f = frames.pop()")
        self.line("r = f.regs")
        self.line("t.regs = r")
        self.line("t.sp = f.sp")
        self.line("if f.dst is not None:")
        self.line(f"    r[f.dst] = {value}")
        self.line("b = f.block")
        self.line("if b is None:")
        if here:
            self.line(f"    {here}")
        self.line('    raise ME("call site at end of function has no '
                  'return point")')
        self.enter("b", "b.addr, len(b.instructions)")

    def terminal_delegate(self, k: int) -> None:
        """LOCK/UNLOCK/BARRIER/HALT (or an odd terminator) via _op_*."""
        self.flush(k)
        self.line(f"i = {~k}")
        self.line(f"X{k}(m, t, I{k})")


def _kernel_source(traced: bool, start: int, shapes: tuple) -> str:
    """The source of the kernel running ``shapes`` from slot ``start``."""
    em = _Emitter(traced, start)
    stop = start + len(shapes)
    last = shapes[-1]
    ends = last[0] in _TERMINATOR_SHAPES or last == ("delegate", True)
    body = shapes[:-1] if ends else shapes
    for k, shape in enumerate(body, start=start):
        if k != start:
            em.line(f"i = {k}")
        em.instruction(k, shape)
    if ends:
        if last[0] == "delegate":
            em.terminal_delegate(stop - 1)
        else:
            em.terminator(stop - 1, last)
    body_lines = em.lines or ["        pass"]

    head = ["def kernel(m, t):", "    r = t.regs"]
    if em.uses_hooks or em.inline_mem:
        head.append("    tid = t.tid")
    if em.uses_hooks:
        head.append("    hk = m.hooks")
    if em.inline_mem or em.inline_blocks:
        head += ["    lv = m._live.get(tid)",
                 "    if lv is not None:",
                 "        w, sb = lv",
                 "        mb = w.mrows"]
        if em.inline_blocks:
            head.append("        tb = w.rows")
    if em.uses_mem:
        head += ["    mem = m.memory", "    me = 0"]
    head.append(f"    i = {start}")
    if em.delegates:
        head.append(f"    s = {start}")
    counted_from = "s" if em.delegates else str(start)
    events = "me" if em.uses_mem else "0"
    fault = f"        FAULT(m, t, i, {counted_from}, {events})"
    handler = []
    if em.inline_mem:
        # A memory row holding a value outside int64 (an address below
        # -2**63) fails as the recorder's writer fails.
        handler = ["    except SE:", fault, "        raise RE() from None"]
    handler += ["    except BaseException:", fault, "        raise"]
    tail = []
    if not ends:
        if em.uses_mem:
            tail.append("    m.mem_events += me")
        if stop > em.seg:
            tail.append(f"    t.instructions_executed += {stop - em.seg}")
        tail.append(f"    t.idx = {stop}")
    return "\n".join(head + ["    try:"] + body_lines + handler + tail) + "\n"


class _BlockCodes(dict):
    """``(start, stop) -> code`` for one block shape, compiled on demand."""

    __slots__ = ("traced", "shapes")

    def __init__(self, traced: bool, shapes: tuple) -> None:
        super().__init__()
        self.traced = traced
        self.shapes = shapes

    def compile(self, start: int, stop: int) -> types.CodeType:
        source = _kernel_source(self.traced, start, self.shapes[start:stop])
        module = compile(source, f"<kernel {start}:{stop}>", "exec")
        code = self[(start, stop)] = next(
            c for c in module.co_consts if isinstance(c, types.CodeType))
        return code


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _block_codes(traced: bool, shapes: tuple) -> _BlockCodes:
    """The kernel code of one block shape (cached per process).

    Programs built from different seeds share their block shapes, so
    after the first analysis of a workload every lookup is a hit.
    """
    return _BlockCodes(traced, shapes)


__all__ = ["BlockKernels", "KERNEL_CACHE_SIZE", "kernel_stats",
           "kernel_table"]
