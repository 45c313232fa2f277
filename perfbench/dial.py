"""Divergence-dial programs: synthetic kernels with a set divergence.

In the style of Bialas & Strzelecki's divergence microbenchmarks, each
program is one worker function whose loop body branches on per-lane
data.  Two parameters set the shape:

* ``pct`` -- the share of lanes that take the divergent arm (0, 25, 50
  or 100).  Exactly ``pct`` percent of the threads carry the flag; a
  seeded permutation decides which, so each warp sees about that share.
* ``depth`` -- how deeply the divergent arm nests further branches on
  other per-lane bits (1 = one if/else, 3 = three nested levels).

Programs are built through the public :class:`repro.program.ProgramBuilder`
and use only arithmetic, loads, stores and structured control flow, so
the lock-step oracle :class:`repro.gpuref.LockstepGPU` runs them too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.isa import Mem, Op
from repro.program import ProgramBuilder

PCTS = (0, 25, 50, 100)
DEPTHS = (1, 3)
#: Loop trips of the worker body; sets the program's length.
TRIPS = 8


@dataclass
class DialProgram:
    """One built dial program plus the launch data that drives it."""

    label: str
    program: object
    n_threads: int
    in_addr: int
    words: List[int]

    def spawns(self):
        return [("worker", [t], None) for t in range(self.n_threads)]

    def setup(self, machine) -> None:
        machine.memory.write_words(self.in_addr, self.words)


def setting(pct: int, depth: int) -> str:
    """The metric label of one dial setting, e.g. ``f25-d3``."""
    return f"f{pct}-d{depth}"


def build(pct: int, depth: int, n_threads: int, seed: int) -> DialProgram:
    """Build the dial program for (``pct``, ``depth``) from ``seed``."""
    rng = random.Random(f"dial:{pct}:{depth}:{seed}")
    order = list(range(n_threads))
    rng.shuffle(order)
    flagged = set(order[:n_threads * pct // 100])
    # Word layout per thread: bit 0 is the divergence flag, the bits
    # above it steer the nested levels, the rest is payload.
    words = [(rng.randrange(1 << 12) << 4)
             | (rng.randrange(1 << 3) << 1)
             | (1 if tid in flagged else 0)
             for tid in range(n_threads)]

    b = ProgramBuilder()
    d_in = b.data("dial_in", 8 * n_threads)
    d_out = b.data("dial_out", 8 * n_threads)
    with b.function("worker", args=["tid"]) as f:
        word = f.reg()
        f.load(word, Mem(None, disp=d_in.value, index=f.a(0), scale=8))
        flag = f.reg()
        f.emit(Op.AND, flag, word, 1)
        acc = f.reg()
        f.mov(acc, f.a(0))
        bits = [f.reg() for _ in range(depth - 1)]
        for level, reg in enumerate(bits):
            f.emit(Op.SHR, reg, word, level + 1)
            f.emit(Op.AND, reg, reg, 1)
        counter = f.reg()

        def work(k: int) -> None:
            f.emit(Op.IMUL, acc, acc, 3 + k)
            f.emit(Op.ADD, acc, acc, word)
            f.emit(Op.IMOD, acc, acc, 100003)

        def nest(level: int) -> None:
            work(level)
            if level < len(bits):
                f.if_else(bits[level], "!=", 0,
                          lambda: nest(level + 1),
                          lambda: work(level + 7))

        def body() -> None:
            f.if_else(flag, "!=", 0, lambda: nest(0), lambda: work(11))
            f.emit(Op.XOR, acc, acc, counter)

        f.for_range(counter, 0, TRIPS, body)
        f.store(Mem(None, disp=d_out.value, index=f.a(0), scale=8), acc)
        f.ret(acc)
    return DialProgram(setting(pct, depth), b.build(), n_threads,
                       d_in.value, words)


def build_all(n_threads: int, seed: int) -> List[DialProgram]:
    """Every dial setting of the grid, built from ``seed``."""
    return [build(pct, depth, n_threads, seed)
            for pct in PCTS for depth in DEPTHS]
