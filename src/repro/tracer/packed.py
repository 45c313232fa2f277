"""Columnar packed trace representation.

A :class:`PackedTrace` lowers one :class:`~repro.tracer.events.ThreadTrace`
token stream into flat ``array`` columns, one entry per token:

====================  =======================================================
column                contents
====================  =======================================================
``kinds``  (``'b'``)  token kind code (``KIND_B`` .. ``KIND_UNLOCK``)
``arg``    (``'q'``)  B: block address; C: index into :attr:`names`;
                      L/U: lock address; R: 0
``nins``   (``'q'``)  B: executed instruction count; otherwise 0
``cumn``   (``'q'``)  ``n_tokens + 1`` running sum of ``nins`` (prefix sums,
                      so any token span's instruction total is one subtract)
``moff``   (``'q'``)  ``n_tokens + 1`` running count of memory records, i.e.
                      token ``i`` owns mem records ``moff[i]:moff[i + 1]``
``mslot``  (``'q'``)  per memory record: instruction slot inside the block
``mstore`` (``'b'``)  per memory record: 1 for store, 0 for load
``maddr``  (``'q'``)  per memory record: virtual address
``msize``  (``'q'``)  per memory record: access size in bytes
====================  =======================================================

Callee name strings are interned once into the :attr:`names` tuple so the
hot columns stay pure int64.  The :attr:`signature` is a sha256 over the
raw column buffers (plus the interned names) -- a content address for the
whole stream that warp-replay memoization keys on.  ``mcnt`` (per-token
memory-record counts, the forward differences of ``moff``) and ``bext``
(maximal ``B``-token run lengths, memory records allowed) are derived
columns for the production replayer, which compares ``mcnt`` slices
across lanes at C speed and consumes whole ``bext`` spans -- memory
blocks included -- per accounting call.

Integrity: the signature is computed over the pristine buffers at pack
time and :meth:`ensure_verified` re-hashes before first use, so any later
corruption of the packed buffers (including injected ``trace.pack``
faults, see :mod:`repro.faults`) surfaces as a
:class:`~repro.errors.TraceCorruptError` -- never as a silently wrong
signature feeding the memo table.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterable, List, Tuple

from ..errors import TraceCorruptError
from .events import TOK_BLOCK, TOK_CALL, TOK_LOCK, TOK_RET, TOK_UNLOCK

#: Token kind codes, in column order.  ``CODE_KINDS[code]`` recovers the
#: single-letter kind of the tuple grammar.
KIND_B = 0
KIND_CALL = 1
KIND_RET = 2
KIND_LOCK = 3
KIND_UNLOCK = 4
CODE_KINDS = (TOK_BLOCK, TOK_CALL, TOK_RET, TOK_LOCK, TOK_UNLOCK)

#: ``log2`` of the coalescing granularity; must stay in sync with
#: :data:`repro.core.metrics.TRANSACTION_BYTES` (asserted in
#: :mod:`repro.core.replay`).
TRANSACTION_SHIFT = 5

_PACK_HINT = (
    "packed trace buffers failed integrity verification; re-trace the "
    "workload (or clear the artifact cache) to rebuild the trace"
)

#: Column layout of one packed trace inside a shared-memory arena:
#: ``(attribute, array typecode)`` in serialization order.  Derived
#: columns (``cumn``, ``msegf``, ``msegl``, ``mcnt``, ``bext``) are
#: exported too, so attaching workers never recompute
#: prefix sums -- but only the eight pristine columns participate in
#: the content signature, exactly as for in-process instances.
SHM_COLUMNS = (
    ("kinds", "b"),
    ("arg", "q"),
    ("nins", "q"),
    ("cumn", "q"),
    ("moff", "q"),
    ("mslot", "q"),
    ("mstore", "b"),
    ("maddr", "q"),
    ("msize", "q"),
    ("msegf", "q"),
    ("msegl", "q"),
    ("mcnt", "q"),
    ("bext", "q"),
)

#: Alignment of each column inside the arena buffer.  Eight bytes keeps
#: every ``'q'`` column naturally aligned for ``memoryview.cast``.
SHM_ALIGN = 8


def _align(offset: int) -> int:
    return (offset + SHM_ALIGN - 1) & ~(SHM_ALIGN - 1)


class PackedTrace:
    """One thread's token stream as flat columnar buffers."""

    __slots__ = (
        "n_tokens", "kinds", "arg", "nins", "cumn", "moff",
        "mslot", "mstore", "maddr", "msize", "names",
        "signature", "msegf", "msegl", "mcnt", "bext",
        "_verified",
    )

    def __init__(self, kinds, arg, nins, moff, mslot, mstore, maddr,
                 msize, names: Tuple[str, ...]) -> None:
        self.n_tokens = len(kinds)
        self.kinds = kinds
        self.arg = arg
        self.nins = nins
        self.moff = moff
        self.mslot = mslot
        self.mstore = mstore
        self.maddr = maddr
        self.msize = msize
        self.names = names
        cumn = array("q", (0,))
        total = 0
        append = cumn.append
        for n in nins:
            total += n
            append(total)
        self.cumn = cumn
        self.mcnt, self.bext = self._block_extents()
        self.signature = self._digest()
        # Verified lazily: the first consumer (replay cursor, memo key)
        # re-hashes the buffers against the signature exactly once.
        self._verified = False
        self._maybe_inject()
        # Per memory record: first/last 32-byte transaction segment, so
        # coalescing reads precomputed bounds instead of dividing in the
        # replay hot loop.  Derived data (like ``bext``): recomputed at
        # pack time, not part of the signature.  Computed after fault
        # injection so the bounds always describe the final buffers.
        shift = TRANSACTION_SHIFT
        maddr, msize = self.maddr, self.msize
        try:
            self.msegf = array("q", [a >> shift for a in maddr])
            self.msegl = array(
                "q", [(maddr[j] + msize[j] - 1) >> shift
                      for j in range(len(maddr))])
        except OverflowError:
            # Corrupted address/size columns can push the segment bounds
            # past int64; that is buffer corruption, not a packing bug.
            raise TraceCorruptError(
                "packed trace memory columns overflow segment bounds",
                site="trace.pack", hint=_PACK_HINT) from None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_tokens(cls, tokens: Iterable[tuple]) -> "PackedTrace":
        """Pack a token tuple stream (the in-memory recorder format)."""
        kinds = array("b")
        arg = array("q")
        nins = array("q")
        moff = array("q", (0,))
        mslot = array("q")
        mstore = array("b")
        maddr = array("q")
        msize = array("q")
        names: List[str] = []
        name_idx = {}
        for token in tokens:
            kind = token[0]
            if kind == TOK_BLOCK:
                kinds.append(KIND_B)
                arg.append(token[1])
                nins.append(token[2])
                for slot, is_store, addr, size in token[3]:
                    mslot.append(slot)
                    mstore.append(1 if is_store else 0)
                    maddr.append(addr)
                    msize.append(size)
            elif kind == TOK_CALL:
                callee = token[1]
                idx = name_idx.setdefault(callee, len(names))
                if idx == len(names):
                    names.append(callee)
                kinds.append(KIND_CALL)
                arg.append(idx)
                nins.append(0)
            elif kind == TOK_RET:
                kinds.append(KIND_RET)
                arg.append(0)
                nins.append(0)
            elif kind == TOK_LOCK:
                kinds.append(KIND_LOCK)
                arg.append(token[1])
                nins.append(0)
            elif kind == TOK_UNLOCK:
                kinds.append(KIND_UNLOCK)
                arg.append(token[1])
                nins.append(0)
            else:
                raise ValueError(f"unknown trace token kind {kind!r}")
            moff.append(len(mslot))
        return cls(kinds, arg, nins, moff, mslot, mstore, maddr, msize,
                   tuple(names))

    @classmethod
    def from_records(cls, records: Iterable) -> "PackedTrace":
        """Pack decoded wire records (lists) without building tuples.

        Raises the same exception families as tuple decoding on malformed
        input (``KeyError``/``TypeError``/``IndexError``/``ValueError``/
        ``OverflowError``) so :func:`repro.tracer.io.load_traces` can map
        them onto :class:`~repro.errors.TraceCorruptError`.
        """
        kinds = array("b")
        arg = array("q")
        nins = array("q")
        moff = array("q", (0,))
        mslot = array("q")
        mstore = array("b")
        maddr = array("q")
        msize = array("q")
        names: List[str] = []
        name_idx = {}
        for rec in records:
            kind = rec[0]
            if kind == TOK_BLOCK:
                flat = rec[3]
                if len(flat) % 4:
                    raise ValueError("mem record array not a multiple of 4")
                kinds.append(KIND_B)
                arg.append(rec[1])
                nins.append(rec[2])
                for i in range(0, len(flat), 4):
                    mslot.append(flat[i])
                    mstore.append(1 if flat[i + 1] else 0)
                    maddr.append(flat[i + 2])
                    msize.append(flat[i + 3])
            elif kind == TOK_CALL:
                callee = rec[1]
                if not isinstance(callee, str):
                    raise TypeError(f"callee must be a string: {callee!r}")
                idx = name_idx.setdefault(callee, len(names))
                if idx == len(names):
                    names.append(callee)
                kinds.append(KIND_CALL)
                arg.append(idx)
                nins.append(0)
            elif kind == TOK_RET:
                kinds.append(KIND_RET)
                arg.append(0)
                nins.append(0)
            elif kind == TOK_LOCK:
                kinds.append(KIND_LOCK)
                arg.append(rec[1])
                nins.append(0)
            elif kind == TOK_UNLOCK:
                kinds.append(KIND_UNLOCK)
                arg.append(rec[1])
                nins.append(0)
            else:
                raise ValueError(f"unknown trace token kind {kind!r}")
            moff.append(len(mslot))
        return cls(kinds, arg, nins, moff, mslot, mstore, maddr, msize,
                   tuple(names))

    # ------------------------------------------------------------------
    # reconstruction (cold paths: error messages, lazy materialization)

    def token(self, i: int) -> tuple:
        """Reconstruct token ``i`` as its original tuple form."""
        kind = self.kinds[i]
        if kind == KIND_B:
            return (TOK_BLOCK, self.arg[i], self.nins[i], self.mems(i))
        if kind == KIND_CALL:
            return (TOK_CALL, self.names[self.arg[i]])
        if kind == KIND_RET:
            return (TOK_RET,)
        if kind == KIND_LOCK:
            return (TOK_LOCK, self.arg[i])
        return (TOK_UNLOCK, self.arg[i])

    def mems(self, i: int) -> tuple:
        """Memory records of token ``i`` as ``(slot, is_store, addr, size)``."""
        lo, hi = self.moff[i], self.moff[i + 1]
        mslot, mstore, maddr, msize = (
            self.mslot, self.mstore, self.maddr, self.msize)
        return tuple(
            (mslot[j], bool(mstore[j]), maddr[j], msize[j])
            for j in range(lo, hi)
        )

    def to_tokens(self) -> List[tuple]:
        """Materialize the full tuple stream (identical to the original)."""
        return [self.token(i) for i in range(self.n_tokens)]

    def to_records(self) -> List[list]:
        """The wire-format records of :mod:`repro.tracer.io`.

        Byte-for-byte identical (after JSON encoding) to encoding the
        tuple stream, so artifact checksums do not depend on which
        representation a trace is in when it is saved.
        """
        out = []
        kinds, arg, nins, moff = self.kinds, self.arg, self.nins, self.moff
        mslot, mstore, maddr, msize = (
            self.mslot, self.mstore, self.maddr, self.msize)
        for i in range(self.n_tokens):
            kind = kinds[i]
            if kind == KIND_B:
                flat = []
                for j in range(moff[i], moff[i + 1]):
                    flat.extend((mslot[j], mstore[j], maddr[j], msize[j]))
                out.append([TOK_BLOCK, arg[i], nins[i], flat])
            elif kind == KIND_CALL:
                out.append([TOK_CALL, self.names[arg[i]]])
            elif kind == KIND_RET:
                out.append([TOK_RET])
            else:
                out.append([CODE_KINDS[kind], arg[i]])
        return out

    # ------------------------------------------------------------------
    # shared-memory export (zero-copy transport between processes)

    def shm_nbytes(self) -> int:
        """Bytes this trace occupies in an arena (aligned columns)."""
        total = 0
        for attr, _ in SHM_COLUMNS:
            column = getattr(self, attr)
            total = _align(total) + len(column) * column.itemsize
        return _align(total)

    def to_shm(self, buf, offset: int) -> Tuple[tuple, int]:
        """Copy the columns into ``buf`` at ``offset`` (a writable
        buffer, typically ``SharedMemory.buf``).

        Returns ``(descriptor, end_offset)``.  The descriptor is a
        small picklable tuple -- ``(signature, names, column spans)`` --
        that :meth:`from_shm` turns back into a live trace against the
        same bytes in another process.  The signature travels in the
        descriptor, so attaching workers re-verify the shared columns
        exactly like locally packed ones.
        """
        spans = []
        view = memoryview(buf)
        for attr, typecode in SHM_COLUMNS:
            column = getattr(self, attr)
            raw = column.tobytes()
            offset = _align(offset)
            view[offset:offset + len(raw)] = raw
            spans.append((offset, len(column)))
            offset += len(raw)
        return (self.signature, self.names, tuple(spans)), _align(offset)

    @classmethod
    def from_shm(cls, descriptor: tuple, buf) -> "PackedTrace":
        """Attach a trace to arena bytes written by :meth:`to_shm`.

        The columns are zero-copy ``memoryview`` casts over ``buf`` --
        nothing is deserialized.  The instance starts *unverified*, so
        the first consumer re-hashes the shared bytes against the
        descriptor signature; corruption of the arena (or an injected
        ``trace.pack`` fault in the producer) surfaces as the usual
        :class:`TraceCorruptError` instead of silently wrong replay.

        Keeps a view per column alive; the segment must not be closed
        while the returned trace (or anything it produced) is in use.
        """
        signature, names, spans = descriptor
        self = object.__new__(cls)
        view = memoryview(buf)
        for (attr, typecode), (offset, count) in zip(SHM_COLUMNS, spans):
            itemsize = 1 if typecode == "b" else 8
            column = view[offset:offset + count * itemsize].cast(typecode)
            setattr(self, attr, column)
        self.n_tokens = len(self.kinds)
        self.names = tuple(names)
        self.signature = signature
        self._verified = False
        return self

    # ------------------------------------------------------------------
    # derived data

    @property
    def total_instructions(self) -> int:
        """Traced dynamic instruction count, O(1)."""
        return self.cumn[-1] if len(self.cumn) > 1 else 0

    def _block_extents(self) -> Tuple[array, array]:
        """``mcnt[i]``: memory records of token ``i``; ``bext[i]``:
        length of the maximal run of ``B`` tokens (memory records
        allowed) starting at ``i``, zero for non-``B`` positions.

        Derived data: recomputed at pack time, outside the signature.
        The production replayer compares ``mcnt``
        slices across lanes at C speed to prove record alignment and
        consumes whole ``bext`` spans with one accounting call.
        """
        n = self.n_tokens
        mcnt = array("q", bytes(8 * n))
        bext = array("q", bytes(8 * n))
        kinds, moff = self.kinds, self.moff
        run = 0
        for i in range(n - 1, -1, -1):
            mcnt[i] = moff[i + 1] - moff[i]
            if kinds[i] == KIND_B:
                run += 1
            else:
                run = 0
            bext[i] = run
        return mcnt, bext

    # ------------------------------------------------------------------
    # integrity

    def _digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(b"threadfuser-packed-v1\x00")
        hasher.update(self.n_tokens.to_bytes(8, "little"))
        for column in (self.kinds, self.arg, self.nins, self.moff,
                       self.mslot, self.mstore, self.maddr, self.msize):
            hasher.update(column.tobytes())
            hasher.update(b"\x00")
        for name in self.names:
            hasher.update(name.encode("utf-8"))
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def ensure_verified(self) -> None:
        """Re-hash the buffers and compare against :attr:`signature`.

        Verification runs once per instance (the first cursor or memo-key
        use); corruption raises :class:`TraceCorruptError` at site
        ``trace.pack``.
        """
        if self._verified:
            return
        if self._digest() != self.signature:
            raise TraceCorruptError(
                "packed trace columns do not match their content signature",
                site="trace.pack", hint=_PACK_HINT)
        self._verified = True

    def _maybe_inject(self) -> None:
        """Deterministic fault hook: corrupt the packed buffers.

        Imported lazily to keep :mod:`repro.tracer` importable without the
        faults machinery in odd bootstrap orders.
        """
        from .. import faults

        plan = faults.active()
        if plan is None:
            return
        blob = b"".join(
            column.tobytes()
            for column in (self.kinds, self.arg, self.nins, self.moff,
                           self.mslot, self.mstore, self.maddr, self.msize))
        mangled = plan.mangle("trace.pack", blob, token=self.signature)
        if mangled == blob:
            return
        # Rebuild the columns from the mangled blob; a truncation that no
        # longer covers every column is itself corruption.
        offset = 0
        for name in ("kinds", "arg", "nins", "moff",
                     "mslot", "mstore", "maddr", "msize"):
            column = getattr(self, name)
            span = len(column) * column.itemsize
            chunk = mangled[offset:offset + span]
            if len(chunk) != span:
                raise TraceCorruptError(
                    "packed trace buffers truncated by fault injection",
                    site="trace.pack", hint=_PACK_HINT)
            fresh = array(column.typecode)
            fresh.frombytes(chunk)
            setattr(self, name, fresh)
            offset += span

    def __repr__(self) -> str:
        return (
            f"<PackedTrace tokens={self.n_tokens} "
            f"instrs={self.total_instructions} sig={self.signature[:12]}>"
        )
