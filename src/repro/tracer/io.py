"""Trace-file (de)serialization.

The paper's tracer writes per-thread trace files that the analyzer later
verifies and replays.  Format v3 stores each logical thread as the eight
pristine columns of its :class:`~repro.tracer.packed.PackedTrace`
(little-endian, the buffers the packed content signature covers), so
writing a trace is one column copy and reading one is one column split --
no per-token encoding in either direction.  A file is one JSON header
line followed by the threads' columns, back to back::

    {"version": 3, "workload": ..., "untraced_skipped": {...},
     "n_threads": N, "threads": [{"index", "cpu_tid", "root", "skipped",
     "names", "n_tokens", "n_mems"}, ...], "sha256": ...}\\n
    <kinds arg nins moff mslot mstore maddr msize of thread 0> ...

The header's ``sha256`` (its last key) covers the header line without it
plus the body, so :func:`load_traces` rejects a truncated, bit-flipped or
otherwise garbled file with a precise
:class:`~repro.errors.TraceCorruptError` before decoding anything.  The
checksum is declared inside the file, so it cannot vouch for the
structure: the loader then checks the body length against the shapes
the header declares, and every thread's columns
(:meth:`~repro.tracer.packed.PackedTrace.from_columns`) and the thread
count.

Files written by earlier releases in the JSON-lines formats (v2 with the
same checksum rule, v1 without one) still load: their token records are
packed by :meth:`~repro.tracer.packed.PackedTrace.from_records`.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Iterable, Union

from .. import faults
from ..errors import TraceCorruptError
from .events import TraceSet
from .packed import PackedTrace, columns_nbytes

FORMAT_VERSION = 3

#: Versions :func:`load_traces` accepts; v1/v2 are the JSON-lines formats
#: of earlier releases (v1 without a checksum).
SUPPORTED_VERSIONS = (1, 2, 3)

_CORRUPT_HINT = ("the trace file is truncated or corrupted; delete it "
                 "and re-trace (cached traces are regenerated "
                 "automatically)")


def _corrupt(message: str) -> TraceCorruptError:
    return TraceCorruptError(message, site="trace.load", hint=_CORRUPT_HINT)


def _checksum(header: dict, body_parts: Iterable[bytes]) -> str:
    """sha256 over the header line without its checksum, plus the body."""
    stripped = {k: v for k, v in header.items() if k != "sha256"}
    hasher = hashlib.sha256(json.dumps(stripped).encode("utf-8"))
    hasher.update(b"\n")
    for part in body_parts:
        hasher.update(part)
    return hasher.hexdigest()


def save_traces(traces: TraceSet, fp: Union[str, IO[bytes]]) -> None:
    """Write ``traces`` in format v3 to a path or binary file object."""
    threads = []
    body_parts = []
    for trace in traces.threads:
        packed = trace.packed()
        # A pack corrupted after its signature was taken must fail here
        # rather than be persisted as a self-consistent file.
        packed.ensure_verified()
        threads.append({
            "index": trace.index,
            "cpu_tid": trace.cpu_tid,
            "root": trace.root,
            "skipped": trace.skipped,
            "names": list(packed.names),
            "n_tokens": packed.n_tokens,
            "n_mems": len(packed.mslot),
        })
        body_parts.append(packed.column_bytes())
    header = {
        "version": FORMAT_VERSION,
        "workload": traces.workload,
        "untraced_skipped": traces.untraced_skipped,
        "n_threads": len(traces.threads),
        "threads": threads,
    }
    # Computed without the checksum key, which must stay the last one.
    header["sha256"] = _checksum(header, body_parts)
    own = isinstance(fp, str)
    out = open(fp, "wb") if own else fp
    try:
        out.write(json.dumps(header).encode("utf-8") + b"\n")
        for part in body_parts:
            out.write(part)
    finally:
        if own:
            out.close()


def _verify_checksum(header: dict, body: bytes) -> None:
    expected = header.get("sha256")
    if not isinstance(expected, str):
        raise _corrupt("trace header is missing its sha256 checksum")
    actual = _checksum(header, (body,))
    if actual != expected:
        raise _corrupt(
            f"trace stream failed its checksum (expected {expected[:12]}.., "
            f"got {actual[:12]}..)")


def _shape(meta: dict) -> tuple:
    n_tokens, n_mems = meta["n_tokens"], meta["n_mems"]
    for count in (n_tokens, n_mems):
        if type(count) is not int or count < 0:
            raise ValueError(f"bad column shape {count!r}")
    return n_tokens, n_mems


def _load_columns(traces: TraceSet, header: dict, body: bytes) -> None:
    """Decode a v3 body: each thread's columns, as the header shapes them."""
    threads = header.get("threads")
    n_threads = header.get("n_threads")
    if not isinstance(threads, list) or type(n_threads) is not int \
            or len(threads) != n_threads:
        raise _corrupt(
            f"trace header describes "
            f"{len(threads) if isinstance(threads, list) else 'no'} "
            f"threads but promises n_threads={n_threads!r}")
    try:
        shapes = [_shape(meta) for meta in threads]
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(f"trace header has a malformed thread shape: "
                       f"{type(exc).__name__}: {exc}") from None
    sizes = [columns_nbytes(*shape) for shape in shapes]
    if sum(sizes) != len(body):
        raise _corrupt(
            f"trace body holds {len(body)} bytes, the header's column "
            f"shapes imply {sum(sizes)}")
    view = memoryview(body)
    offset = 0
    for position, (meta, shape, size) in enumerate(
            zip(threads, shapes, sizes)):
        try:
            trace = traces.new_thread(meta["cpu_tid"], meta["root"])
            trace.skipped = dict(meta["skipped"])
            trace.attach_packed(PackedTrace.from_columns(
                view[offset:offset + size], *shape, meta["names"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _corrupt(
                f"trace thread {position} is malformed: "
                f"{type(exc).__name__}: {exc}") from None
        trace.closed = True
        offset += size


def _load_records(traces: TraceSet, body: bytes) -> None:
    """Decode a v1/v2 JSON-lines body: one token-record line per thread."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _corrupt(f"trace stream is not valid UTF-8: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            raise _corrupt(
                f"trace record at line {lineno} is truncated or garbled"
            ) from None
        try:
            trace = traces.new_thread(record["cpu_tid"], record["root"])
            trace.skipped = dict(record["skipped"])
            trace.attach_packed(PackedTrace.from_records(record["tokens"]))
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            raise _corrupt(
                f"trace record at line {lineno} is malformed: "
                f"{type(exc).__name__}: {exc}") from None
        trace.closed = True


def load_traces(fp: Union[str, IO[bytes]], program=None) -> TraceSet:
    """Read a :class:`TraceSet` from a path or binary file object.

    Reads format v3 (written by :func:`save_traces`) and the v1/v2
    JSON-lines files of earlier releases.  Raises
    :class:`~repro.errors.TraceCorruptError` (a ``ValueError`` subclass)
    when the stream is empty, truncated, bit-flipped, fails its checksum
    or a structural check, or was written under an unsupported format
    version.
    """
    own = isinstance(fp, str)
    inp = open(fp, "rb") if own else fp
    try:
        data = inp.read()
    finally:
        if own:
            inp.close()
    data = faults.mangle("trace.load", data)
    if not data.strip():
        raise _corrupt("trace stream is empty (truncated before the header?)")
    header_line, _newline, body = data.partition(b"\n")
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise _corrupt(f"trace header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or "version" not in header:
        raise _corrupt("trace header is not an object with a 'version' field")
    version = header.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise TraceCorruptError(
            f"unsupported trace format version {version!r} "
            f"(this release reads {SUPPORTED_VERSIONS})",
            site="trace.load",
            hint="the file was written by an incompatible release; "
                 "re-trace the workload",
        )
    if version >= 2:
        _verify_checksum(header, body)
    traces = TraceSet(workload=header.get("workload", ""), program=program)
    skipped = header.get("untraced_skipped", {})
    if not isinstance(skipped, dict):
        raise _corrupt("trace header field 'untraced_skipped' is not an "
                       "object")
    traces.untraced_skipped = dict(skipped)
    if version >= 3:
        _load_columns(traces, header, body)
        return traces
    _load_records(traces, body)
    expected_threads = header.get("n_threads")
    if isinstance(expected_threads, int) \
            and len(traces.threads) != expected_threads:
        raise _corrupt(
            f"trace stream truncated: header promises {expected_threads} "
            f"threads, found {len(traces.threads)}")
    return traces
