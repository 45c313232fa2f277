"""Program intermediate representation: instructions, blocks, functions.

A :class:`Program` is the unit the machine executes and the tracer observes.
Its layout mirrors a linked binary: every function occupies a contiguous
address range and every instruction/basic block has a unique address, so
traces carry addresses exactly like the paper's PIN traces do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..isa import Op, Mem, Label, BLOCK_TERMINATORS, CONDITIONAL_JUMPS
from ..isa.classes import classify

#: Byte size of one encoded instruction in the address layout.  Real x86 is
#: variable length; a fixed pitch keeps addresses unique and ordered, which
#: is all the analyzer needs.
INSTR_PITCH = 4


class Instruction:
    """One CISC instruction.

    ``operands`` holds the destination first (when the opcode has one)
    followed by sources.  ``target`` is a :class:`Label` (pre-link) or an
    integer address (post-link) for branches and calls.
    """

    __slots__ = ("op", "operands", "target", "addr", "iclass")

    def __init__(self, op: Op, operands: Sequence = (), target=None) -> None:
        self.op = op
        self.operands = tuple(operands)
        self.target = target
        self.addr: Optional[int] = None
        self.iclass = classify(op)

    @property
    def mem_operand(self) -> Optional[Mem]:
        """The instruction's memory operand, if any (at most one)."""
        for operand in self.operands:
            if isinstance(operand, Mem):
                return operand
        return None

    def reads_memory(self) -> bool:
        """True when executing this instruction performs a load."""
        mem = self.mem_operand
        if mem is None:
            return False
        if self.op == Op.LEA:
            return False
        if self.op == Op.MOV:
            return isinstance(self.operands[1], Mem)
        if self.op in (Op.XCHG, Op.AADD):
            return True
        # Three-operand ALU ops read their memory operand wherever it sits
        # among the sources; a memory *destination* is read-modify-write.
        return True

    def writes_memory(self) -> bool:
        """True when executing this instruction performs a store."""
        mem = self.mem_operand
        if mem is None or self.op == Op.LEA:
            return False
        if self.op == Op.MOV:
            return isinstance(self.operands[0], Mem)
        if self.op in (Op.XCHG, Op.AADD):
            return True
        return isinstance(self.operands[0], Mem) if self.operands else False

    def __repr__(self) -> str:
        ops = ", ".join(repr(o) for o in self.operands)
        tail = f" -> {self.target!r}" if self.target is not None else ""
        return f"{self.op.name.lower()} {ops}{tail}".strip()


class BasicBlock:
    """A single-entry straight-line run of instructions."""

    __slots__ = ("label", "instructions", "addr", "function")

    def __init__(self, label: str) -> None:
        self.label = label
        self.instructions: List[Instruction] = []
        self.addr: Optional[int] = None
        self.function: Optional["Function"] = None

    def append(self, instr: Instruction) -> None:
        if self.is_terminated():
            raise ValueError(
                f"block {self.label!r} already terminated by "
                f"{self.instructions[-1]!r}"
            )
        self.instructions.append(instr)

    def is_terminated(self) -> bool:
        return bool(self.instructions) and (
            self.instructions[-1].op in BLOCK_TERMINATORS
        )

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.is_terminated():
            return self.instructions[-1]
        return None

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} x{len(self.instructions)}>"


class LoopInfo:
    """Metadata about one counted loop, recorded by the builder.

    The optimizer (:mod:`repro.optlevels`) uses it for loop-invariant
    promotion and unrolling, the way gcc uses its loop tree.
    """

    __slots__ = ("header", "body_first", "cont", "exit", "preheader",
                 "counter", "step", "stop")

    def __init__(self, header: str, body_first: str, cont: str, exit: str,
                 preheader: str, counter, step: int, stop) -> None:
        self.header = header
        self.body_first = body_first
        self.cont = cont
        self.exit = exit
        self.preheader = preheader
        self.counter = counter
        self.step = step
        self.stop = stop


class Function:
    """A function: an ordered list of basic blocks, entry first."""

    def __init__(self, name: str, num_args: int, frame_size: int = 0) -> None:
        self.name = name
        self.num_args = num_args
        self.frame_size = frame_size
        self.blocks: List[BasicBlock] = []
        self.block_by_label: Dict[str, BasicBlock] = {}
        self.num_regs = 1 + num_args
        self.addr: Optional[int] = None
        self.loops: List[LoopInfo] = []

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.block_by_label:
            raise ValueError(f"duplicate block label {block.label!r} in {self.name}")
        block.function = self
        self.blocks.append(block)
        self.block_by_label[block.label] = block
        return block

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def __repr__(self) -> str:
        return f"<Function {self.name} blocks={len(self.blocks)}>"


class DataObject:
    """A named global data region placed in the heap segment at link time."""

    __slots__ = ("name", "size", "addr")

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size
        self.addr: Optional[int] = None


class Program:
    """A linked set of functions plus global data layout."""

    def __init__(self) -> None:
        self.functions: Dict[str, Function] = {}
        self.data_objects: Dict[str, DataObject] = {}
        self._next_data_addr = self.DATA_BASE
        self._linked = False
        self.instr_by_addr: Dict[int, Instruction] = {}
        self.block_by_addr: Dict[int, BasicBlock] = {}
        self.function_by_addr: Dict[int, Function] = {}
        #: The compiled engine's bound kernels: one ``block ->
        #: BlockKernels`` table per variant (``"traced"``/``"native"``),
        #: filled as blocks first run (:mod:`repro.machine.compiled`).
        #: Kernels bind resolved addresses and block objects, so
        #: :meth:`link` clears this cache.
        self.compiled_cache: Dict[str, dict] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        self._linked = False
        return function

    def add_data(self, name: str, size: int) -> DataObject:
        """Reserve a global data region.

        Addresses are assigned eagerly so builder code can embed them as
        immediates; :meth:`link` keeps them stable.
        """
        if name in self.data_objects:
            raise ValueError(f"duplicate data object {name!r}")
        obj = DataObject(name, size)
        obj.addr = self._next_data_addr
        self._next_data_addr += (size + 31) & ~31  # 32-byte align objects
        self.data_objects[name] = obj
        self._linked = False
        return obj

    @property
    def data_end(self) -> int:
        """First heap address beyond all global data (the initial brk)."""
        return self._next_data_addr

    # ------------------------------------------------------------------
    # Linking: assign addresses and resolve Labels.

    CODE_BASE = 0x0040_0000
    DATA_BASE = 0x1000_0000

    def link(self) -> "Program":
        """Assign addresses to functions/blocks/instructions and data.

        Branch targets referencing labels are resolved to block addresses;
        call targets are resolved to function entry addresses.  Idempotent.
        """
        addr = self.CODE_BASE
        self.instr_by_addr.clear()
        self.block_by_addr.clear()
        self.function_by_addr.clear()
        self.compiled_cache.clear()
        for function in self.functions.values():
            function.addr = addr
            self.function_by_addr[addr] = function
            for block in function.blocks:
                block.addr = addr
                self.block_by_addr[addr] = block
                for instr in block.instructions:
                    instr.addr = addr
                    self.instr_by_addr[addr] = instr
                    addr += INSTR_PITCH
                if not block.instructions:
                    # Empty blocks still need a unique address.
                    addr += INSTR_PITCH

        self._resolve_targets()
        self._validate()
        self._linked = True
        return self

    def _resolve_targets(self) -> None:
        for function in self.functions.values():
            for block in function.blocks:
                for instr in block.instructions:
                    if isinstance(instr.target, Label):
                        name = instr.target.name
                        if instr.op == Op.CALL:
                            callee = self.functions.get(name)
                            if callee is None:
                                raise KeyError(
                                    f"call to unknown function {name!r} "
                                    f"in {function.name}"
                                )
                            instr.target = callee.entry.addr
                        else:
                            target_block = function.block_by_label.get(name)
                            if target_block is None:
                                raise KeyError(
                                    f"branch to unknown label {name!r} "
                                    f"in {function.name}"
                                )
                            instr.target = target_block.addr

    def _validate(self) -> None:
        for function in self.functions.values():
            if not function.blocks:
                raise ValueError(f"function {function.name} has no blocks")
            for block in function.blocks:
                if not block.instructions:
                    raise ValueError(
                        f"empty block {block.label} in {function.name}"
                    )
                if not block.is_terminated() and block is function.blocks[-1]:
                    raise ValueError(
                        f"final block {block.label} of {function.name} "
                        "does not end in a terminator"
                    )

    # ------------------------------------------------------------------
    # Lookup helpers.

    def next_block(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Fall-through successor of ``block`` within its function."""
        function = block.function
        idx = function.blocks.index(block)
        if idx + 1 < len(function.blocks):
            return function.blocks[idx + 1]
        return None

    def static_successors(self, block: BasicBlock) -> List[BasicBlock]:
        """Static CFG successors (used by validation and the optimizer)."""
        term = block.terminator
        succs: List[BasicBlock] = []
        fallthrough = self.next_block(block)
        if term is None:
            if fallthrough is not None:
                succs.append(fallthrough)
            return succs
        if term.op == Op.JMP:
            succs.append(self.block_by_addr[term.target])
        elif term.op in CONDITIONAL_JUMPS:
            succs.append(self.block_by_addr[term.target])
            if fallthrough is not None:
                succs.append(fallthrough)
        elif term.op in (Op.RET, Op.HALT):
            pass
        else:  # CALL / LOCK / UNLOCK / BARRIER fall through after the event
            if fallthrough is not None:
                succs.append(fallthrough)
        return succs

    def total_instructions(self) -> int:
        return sum(
            len(b) for f in self.functions.values() for b in f.blocks
        )
