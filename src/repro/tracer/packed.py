"""Columnar packed trace representation.

A :class:`PackedTrace` holds one :class:`~repro.tracer.events.ThreadTrace`
token stream as flat ``array`` columns, one entry per token:

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

The eight pristine columns (:data:`PRISTINE_COLUMNS`, everything above
except ``cumn``) are the content of a trace.  While it is recorded, a
:class:`ColumnWriter` -- the one encoder -- holds it as packed rows, one
:data:`TOKEN_ROW` per token and one :data:`MEM_ROW` per memory record;
the first :meth:`~repro.tracer.events.ThreadTrace.packed` call splits
the rows into columns.  The pristine columns are also the trace-file
wire format: :meth:`column_bytes` encodes them little-endian and
:meth:`from_columns` decodes and validates them (format v3 of
:mod:`repro.tracer.io`).  Every trace, fresh or loaded, gets its
derived columns from :meth:`PackedTrace._derive`.

Integrity: the signature is computed over the pristine buffers at pack
time and :meth:`ensure_verified` re-hashes before first use, so any later
corruption of the packed buffers (including injected ``trace.pack``
faults, see :mod:`repro.faults`) surfaces as a
:class:`~repro.errors.TraceCorruptError` -- never as a silently wrong
signature feeding the memo table.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from itertools import accumulate, repeat
from operator import add, le, rshift, sub
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TraceCorruptError

#: Token kinds as letters of the tuple grammar (the oracle's view of a
#: trace, see :mod:`repro.tracer.events`) ...
TOK_BLOCK = "B"
TOK_CALL = "C"
TOK_RET = "R"
TOK_LOCK = "L"
TOK_UNLOCK = "U"

#: ... and as codes of the ``kinds`` column.  ``CODE_KINDS[code]``
#: recovers the letter.
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

#: The columns the content signature covers, ``(attribute, typecode)`` in
#: signature order -- also the order of the trace-file wire encoding
#: (:meth:`PackedTrace.column_bytes`).  Every other column is derived.
PRISTINE_COLUMNS = (
    ("kinds", "b"),
    ("arg", "q"),
    ("nins", "q"),
    ("moff", "q"),
    ("mslot", "q"),
    ("mstore", "b"),
    ("maddr", "q"),
    ("msize", "q"),
)

#: Wire columns are little-endian; big-endian hosts swap on the way.
_SWAP = sys.byteorder == "big"

#: Valid bytes of the ``kinds`` column (``KIND_B`` .. ``KIND_UNLOCK``),
#: and the byte of a call token.
_KIND_CODES = bytes(range(len(CODE_KINDS)))
_CALL_CODE = bytes((KIND_CALL,))
#: Maps every non-block kind code to 1 (``bytes.translate`` table).
_NON_BLOCK = bytes((0,)) + bytes((1,)) * 255

#: A :class:`ColumnWriter` token row: kind, arg, nins and the token's
#: first memory record (its ``moff`` entry).
TOKEN_ROW = struct.Struct("<4q")
#: A memory row: slot, store flag, address and size.  Traced kernels
#: append these rows inline.
MEM_ROW = struct.Struct("<4q")


def _int64(values: Iterable[int]) -> array:
    """A ``'q'`` array of ``values``, built by one ``struct`` pack --
    about twice as fast as ``array('q', values)``, which parses every
    item on its own.  A value outside int64 raises ``struct.error``."""
    values = tuple(values)
    column = array("q")
    column.frombytes(struct.pack(f"{len(values)}q", *values))
    return column


def row_error(values: Iterable = ()) -> Exception:
    """The exception for a row ``struct`` refused.

    ``struct.error`` is neither a ``TypeError`` nor an
    ``OverflowError``, the families trace loaders map to corruption, so
    writers raise this instead: a ``TypeError`` when one of ``values``
    is not an integer, else an ``OverflowError`` (a value outside
    int64, such as an address below ``-2**63``).
    """
    for value in values:
        if not isinstance(value, int):
            return TypeError(
                f"trace values must be integers, not {type(value).__name__}")
    return OverflowError("trace value outside the int64 range")


#: Column layout of one packed trace inside a shared-memory arena:
#: ``(attribute, array typecode)`` in serialization order.  The derived
#: columns follow the pristine ones, so attaching workers never recompute
#: prefix sums -- but only the pristine columns participate in the
#: content signature, exactly as for in-process instances.
SHM_COLUMNS = PRISTINE_COLUMNS + (
    ("cumn", "q"),
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


def _column_lengths(n_tokens: int, n_mems: int) -> Tuple[int, ...]:
    """Entries per pristine column of a trace with this shape."""
    return (n_tokens,) * 3 + (n_tokens + 1,) + (n_mems,) * 4


def columns_nbytes(n_tokens: int, n_mems: int) -> int:
    """Length of :meth:`PackedTrace.column_bytes` for this shape."""
    return sum(
        count * (1 if typecode == "b" else 8)
        for (_attr, typecode), count in zip(
            PRISTINE_COLUMNS, _column_lengths(n_tokens, n_mems)))


def _split_columns(blob, n_tokens: int, n_mems: int) -> List[array]:
    """Inverse of :meth:`PackedTrace.column_bytes`.

    Raises ``ValueError`` unless ``blob`` holds exactly the columns of
    a trace with ``n_tokens`` tokens and ``n_mems`` memory records.
    """
    if n_tokens < 0 or n_mems < 0:
        raise ValueError(f"negative trace shape ({n_tokens}, {n_mems})")
    expected = columns_nbytes(n_tokens, n_mems)
    if len(blob) != expected:
        raise ValueError(
            f"column bytes hold {len(blob)} bytes, the shape implies "
            f"{expected}")
    view = memoryview(blob)
    columns = []
    offset = 0
    for (_attr, typecode), count in zip(
            PRISTINE_COLUMNS, _column_lengths(n_tokens, n_mems)):
        column = array(typecode)
        end = offset + count * column.itemsize
        column.frombytes(view[offset:end])
        if _SWAP:
            column.byteswap()
        columns.append(column)
        offset = end
    return columns


def _row_fields(rows, width: int, fields: Sequence[int]) -> List[array]:
    """Fields ``fields`` of little-endian int64 rows ``width`` words
    wide, one ``'q'`` array each (strided slices, copied at C speed)."""
    columns = []
    with memoryview(rows) as raw, raw.cast("q") as words:
        for field in fields:
            column = array("q")
            column.frombytes(words[field::width].tobytes())
            if _SWAP:
                column.byteswap()
            columns.append(column)
    return columns


def _row_bytes(rows, width: int, field: int) -> array:
    """The low byte of field ``field`` of every row, as a ``'b'`` array
    (the ``kinds`` and ``mstore`` columns)."""
    column = array("b")
    column.frombytes(rows[8 * field::8 * width])
    return column


class ColumnWriter:
    """Records the tokens of one trace as packed rows.

    The one encoder of trace events: the recorder writes through it
    while the machine runs, traced kernels append its rows inline
    (:mod:`repro.machine.compiled`), and
    :meth:`PackedTrace.from_tokens` / :meth:`PackedTrace.from_records`
    are loops over it.  :attr:`rows` holds one :data:`TOKEN_ROW` per
    token and :attr:`mrows` one :data:`MEM_ROW` per memory record, so
    an event is one ``struct`` pack and one ``bytearray`` append.
    :meth:`pack` splits the rows into the pristine columns.
    """

    __slots__ = ("rows", "mrows", "names", "_name_index")

    def __init__(self) -> None:
        self.rows = bytearray()
        self.mrows = bytearray()
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}

    def token(self, kind: int, arg: int, nins: int = 0) -> None:
        """Append a token without memory records yet: ``KIND_B`` with
        its block address and instruction count, ``KIND_RET`` with 0,
        ``KIND_LOCK``/``KIND_UNLOCK`` with the lock address."""
        try:
            self.rows += TOKEN_ROW.pack(kind, arg, nins,
                                        len(self.mrows) // MEM_ROW.size)
        except struct.error:
            raise row_error((arg, nins)) from None

    def mem(self, slot: int, is_store, addr: int, size: int) -> None:
        """Append a memory record to the last token (a block)."""
        try:
            self.mrows += MEM_ROW.pack(slot, 1 if is_store else 0, addr,
                                       size)
        except struct.error:
            raise row_error((slot, addr, size)) from None

    def call(self, callee: str) -> None:
        """Append a call token, interning ``callee`` into :attr:`names`."""
        index = self._name_index.get(callee)
        if index is None:
            index = self._name_index[callee] = len(self.names)
            self.names.append(callee)
        self.token(KIND_CALL, index)

    @property
    def n_tokens(self) -> int:
        return len(self.rows) // TOKEN_ROW.size

    @property
    def n_instructions(self) -> int:
        if _SWAP:
            return sum(_row_fields(self.rows, 4, (2,))[0])
        # Sums the ``nins`` field through a strided view, copying nothing.
        with memoryview(self.rows) as raw, raw.cast("q") as words:
            return sum(words[2::4])

    def columns(self) -> Tuple[array, ...]:
        """Copies of the pristine columns written so far, in
        :data:`PRISTINE_COLUMNS` order (``moff`` without its closing
        total)."""
        rows, mrows = self.rows, self.mrows
        arg, nins, moff = _row_fields(rows, 4, (1, 2, 3))
        mslot, maddr, msize = _row_fields(mrows, 4, (0, 2, 3))
        return (_row_bytes(rows, 4, 0), arg, nins, moff,
                mslot, _row_bytes(mrows, 4, 1), maddr, msize)

    def pack(self) -> "PackedTrace":
        """The :class:`PackedTrace` over these rows."""
        kinds, arg, nins, moff, mslot, mstore, maddr, msize = self.columns()
        moff.append(len(mslot))
        return PackedTrace(kinds, arg, nins, moff, mslot, mstore, maddr,
                           msize, tuple(self.names))


def _flat_mems(flat) -> Iterable[tuple]:
    """The memory records of a v1/v2 file: one flat list per block."""
    if len(flat) % 4:
        raise ValueError("mem record array not a multiple of 4")
    fields = iter(flat)
    return zip(fields, fields, fields, fields)


def _pack_stream(stream: Iterable, mems_of) -> "PackedTrace":
    """Pack tokens in the tuple grammar through a :class:`ColumnWriter`.

    ``mems_of`` turns a block token's memory field into its
    ``(slot, is_store, addr, size)`` records.
    """
    writer = ColumnWriter()
    for token in stream:
        kind = token[0]
        if kind == TOK_BLOCK:
            writer.token(KIND_B, token[1], token[2])
            for slot, is_store, addr, size in mems_of(token[3]):
                writer.mem(slot, is_store, addr, size)
        elif kind == TOK_CALL:
            callee = token[1]
            if not isinstance(callee, str):
                raise TypeError(f"callee must be a string: {callee!r}")
            writer.call(callee)
        elif kind == TOK_RET:
            writer.token(KIND_RET, 0)
        elif kind == TOK_LOCK:
            writer.token(KIND_LOCK, token[1])
        elif kind == TOK_UNLOCK:
            writer.token(KIND_UNLOCK, token[1])
        else:
            raise ValueError(f"unknown trace token kind {kind!r}")
    return writer.pack()


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
        self.signature = self._digest()
        # Verified lazily: the first consumer (replay cursor, memo key)
        # re-hashes the buffers against the signature exactly once.
        self._verified = False
        self._maybe_inject()
        # Derived after fault injection, so the derived columns always
        # describe the final buffers.
        self._derive()

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_tokens(cls, tokens: Iterable[tuple]) -> "PackedTrace":
        """Pack a token tuple stream (the oracle's view of a trace)."""
        return _pack_stream(tokens, iter)

    @classmethod
    def from_records(cls, records: Iterable) -> "PackedTrace":
        """Pack the token records of a v1/v2 JSON-lines trace file.

        Earlier releases wrote traces as one JSON list per token; these
        records are packed straight into columns, without tuples.

        Raises the same exception families as tuple decoding on malformed
        input (``KeyError``/``TypeError``/``IndexError``/``ValueError``/
        ``OverflowError``) so :func:`repro.tracer.io.load_traces` can map
        them onto :class:`~repro.errors.TraceCorruptError`.
        """
        return _pack_stream(records, _flat_mems)

    @classmethod
    def from_columns(cls, blob, n_tokens: int, n_mems: int,
                     names: Sequence[str]) -> "PackedTrace":
        """Decode :meth:`column_bytes` output (one thread of a v3 file).

        The bytes come from outside the process, so the structure the
        replayer relies on is checked before any derived column is
        built: the exact byte length, ``moff`` starting at 0, never
        decreasing and ending at ``n_mems``, kind codes in range, store
        flags 0 or 1, and call indexes within ``names``.  Violations
        raise ``ValueError`` (``TypeError`` unless ``names`` is a list
        or tuple of strings).
        """
        columns = _split_columns(blob, n_tokens, n_mems)
        kinds, arg, _nins, moff, _mslot, mstore, _maddr, _msize = columns
        if not isinstance(names, (list, tuple)) \
                or not all(isinstance(name, str) for name in names):
            raise TypeError(f"callee names are not strings: {names!r}")
        names = tuple(names)
        codes = kinds.tobytes()
        if codes.translate(None, _KIND_CODES):
            raise ValueError("kind code out of range")
        if mstore.tobytes().translate(None, b"\x00\x01"):
            raise ValueError("store flag is neither 0 nor 1")
        if moff[0] != 0 or moff[-1] != n_mems \
                or not all(map(le, moff, moff[1:])):
            raise ValueError(
                "memory offsets do not run from 0 up to the record count")
        call = codes.find(_CALL_CODE)
        while call >= 0:
            if not 0 <= arg[call] < len(names):
                raise ValueError(
                    f"call index {arg[call]} outside the {len(names)} "
                    f"callee names")
            call = codes.find(_CALL_CODE, call + 1)
        return cls(*columns, names)

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
        return (CODE_KINDS[kind], self.arg[i])  # lock or unlock

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

    def column_bytes(self) -> bytes:
        """The pristine columns, little-endian, in signature order.

        The per-thread body of a trace file (format v3 of
        :mod:`repro.tracer.io`); :meth:`from_columns` inverts it.
        """
        columns = [getattr(self, attr) for attr, _ in PRISTINE_COLUMNS]
        if _SWAP:
            columns = [array(typecode, column) for column, (_, typecode)
                       in zip(columns, PRISTINE_COLUMNS)]
            for column in columns:
                column.byteswap()
        return b"".join(columns)

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

    def _derive(self) -> None:
        """Build the derived columns from the pristine ones.

        ``cumn``: prefix sums of ``nins``.  ``msegf``/``msegl``: each
        memory record's first/last 32-byte transaction segment, so
        coalescing reads precomputed bounds instead of dividing in the
        replay hot loop.  ``mcnt[i]``: memory records of token ``i``.
        ``bext[i]``: length of the maximal run of ``B`` tokens (memory
        records allowed) starting at ``i``, zero for non-``B``
        positions -- the production replayer compares ``mcnt`` slices
        across lanes at C speed and consumes whole ``bext`` spans with
        one accounting call.

        The one derivation, of fresh, loaded and mangled packs alike;
        none of these columns is part of the signature.
        """
        moff, maddr, msize = self.moff, self.maddr, self.msize
        shift = repeat(TRANSACTION_SHIFT)
        try:
            self.cumn = _int64(accumulate(self.nins, initial=0))
            self.msegf = _int64(map(rshift, maddr, shift))
            self.msegl = _int64(map(rshift, map(
                sub, map(add, maddr, msize), repeat(1)), shift))
            self.mcnt = _int64(map(sub, moff[1:], moff[:-1]))
        except struct.error:
            # Corrupted columns can push the sums and bounds past
            # int64; that is buffer corruption, not a packing bug.
            raise TraceCorruptError(
                "packed trace columns overflow their derived columns",
                site="trace.pack", hint=_PACK_HINT) from None
        # The runs of block tokens, each closed by a non-block token
        # (its 0) but the last.
        bext: List[int] = []
        runs = self.kinds.tobytes().translate(_NON_BLOCK).split(b"\x01")
        for run in runs[:-1]:
            bext += range(len(run), -1, -1)
        bext += range(len(runs[-1]), 0, -1)
        self.bext = _int64(bext)

    # ------------------------------------------------------------------
    # integrity

    def _digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(b"threadfuser-packed-v1\x00")
        hasher.update(self.n_tokens.to_bytes(8, "little"))
        for attr, _typecode in PRISTINE_COLUMNS:
            hasher.update(getattr(self, attr))
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
        blob = self.column_bytes()
        mangled = plan.mangle("trace.pack", blob, token=self.signature)
        if mangled == blob:
            return
        # Rebuild the columns from the mangled blob; a truncation that no
        # longer covers every column is itself corruption.
        try:
            columns = _split_columns(mangled, self.n_tokens, len(self.mslot))
        except ValueError:
            raise TraceCorruptError(
                "packed trace buffers truncated by fault injection",
                site="trace.pack", hint=_PACK_HINT) from None
        for (attr, _typecode), column in zip(PRISTINE_COLUMNS, columns):
            setattr(self, attr, column)

    def __repr__(self) -> str:
        return (
            f"<PackedTrace tokens={self.n_tokens} "
            f"instrs={self.total_instructions} sig={self.signature[:12]}>"
        )
