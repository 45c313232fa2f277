"""Accel-Sim-style textual serialization of warp traces.

The format follows the spirit of Accel-Sim's SASS traces: one kernel
header, then per-warp sections with one micro-op per line carrying PC,
functional class, active mask and (for memory ops) space plus per-lane
addresses.
"""

from __future__ import annotations

from typing import IO, Union

from ..errors import TraceCorruptError
from .warptrace import KernelTrace, WarpInstruction

_CORRUPT_HINT = (
    "the kernel trace file is truncated or garbled; regenerate it with "
    "'threadfuser tracegen'"
)


def save_kernel_trace(kernel: KernelTrace, fp: Union[str, IO]) -> None:
    own = isinstance(fp, str)
    out = open(fp, "w") if own else fp
    try:
        out.write(f"-kernel name = {kernel.name}\n")
        out.write(f"-warp size = {kernel.warp_size}\n")
        out.write(f"-num warps = {len(kernel.warps)}\n")
        for warp in kernel.warps:
            out.write(f"#warp {warp.warp_id} threads {warp.n_threads}\n")
            for instr in warp:
                parts = [
                    f"{instr.pc:#010x}",
                    instr.op_class,
                    f"{instr.mask:#x}",
                ]
                if instr.is_memory():
                    addrs = ",".join(
                        f"{addr:#x}:{size}"
                        for addr, size in (instr.accesses or [])
                    )
                    parts.append(instr.space)
                    parts.append(addrs or "-")
                out.write(" ".join(parts) + "\n")
    finally:
        if own:
            out.close()


def load_kernel_trace(fp: Union[str, IO]) -> KernelTrace:
    own = isinstance(fp, str)
    inp = open(fp) if own else fp
    try:
        try:
            name = inp.readline().split("=", 1)[1].strip()
            warp_size = int(inp.readline().split("=", 1)[1])
            n_warps = int(inp.readline().split("=", 1)[1])
        except (IndexError, ValueError) as exc:
            raise TraceCorruptError(
                "kernel trace header is malformed",
                site="trace.load", hint=_CORRUPT_HINT,
            ) from exc
        kernel = KernelTrace(name, warp_size)
        stream = None
        for lineno, line in enumerate(inp, 4):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#warp"):
                    _tag, _wid, _kw, n_threads = line.split()
                    stream = kernel.new_warp(int(n_threads))
                    continue
                if stream is None:
                    raise ValueError("instruction before any #warp header")
                parts = line.split()
                pc = int(parts[0], 16)
                op_class = parts[1]
                mask = int(parts[2], 16)
                if len(parts) > 3:
                    space = parts[3]
                    accesses = []
                    if parts[4] != "-":
                        for chunk in parts[4].split(","):
                            addr, size = chunk.split(":")
                            accesses.append((int(addr, 16), int(size)))
                    stream.append(WarpInstruction(pc, op_class, mask,
                                                  space=space,
                                                  accesses=accesses))
                else:
                    stream.append(WarpInstruction(pc, op_class, mask))
            except TraceCorruptError:
                raise
            except (IndexError, ValueError) as exc:
                raise TraceCorruptError(
                    f"kernel trace line {lineno} is malformed: {line!r}",
                    site="trace.load", hint=_CORRUPT_HINT,
                ) from exc
        if len(kernel.warps) != n_warps:
            # E.g. a file cut at a warp boundary.
            raise TraceCorruptError(
                f"kernel trace header declares {n_warps} warps but the "
                f"file holds {len(kernel.warps)}",
                site="trace.load", hint=_CORRUPT_HINT,
            )
        return kernel
    finally:
        if own:
            inp.close()
