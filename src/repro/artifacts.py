"""Content-addressed on-disk artifact store for analysis stages.

The paper's own use cases (warp-size sweeps, O0-O3 correlation, lock
ablations) re-analyze *identical traces* under different configs, so the
expensive stage outputs -- serialized :class:`~repro.tracer.events.TraceSet`
files, prepared DCFG/IPDOM tables, and :class:`~repro.core.report.
AnalysisReport` objects -- are first-class, cached, reusable artifacts.

Addressing is by *fingerprint*: a flat JSON-serializable dict of the
fields that determine an artifact's content (workload name, thread count,
input seed, optimization level, machine/tracer config, analyzer config for
reports) plus the store schema version.  The fingerprint is canonicalized
(sorted keys) and hashed; the hash is the artifact's address.  Bumping
:data:`SCHEMA_VERSION` therefore invalidates every prior entry without
touching the disk: old objects simply stop being addressable and can be
garbage-collected with ``threadfuser cache clear``.

On-disk layout::

    <root>/store.json                      # {"schema": SCHEMA_VERSION}
    <root>/objects/<kind>/<hh>/<hash>.<ext>        # payload
    <root>/objects/<kind>/<hh>/<hash>.meta.json    # fingerprint + size

where ``kind`` is one of ``traces`` (packed columns, trace format v3
of :mod:`repro.tracer.io`), ``dcfgs`` or ``report`` (pickle, fixed
protocol so identical inputs yield byte-identical artifacts), or
``telemetry`` (the ``telemetry.json`` document of a profiled run, see
:mod:`repro.obs`), and ``hh`` is the first two hash characters.

Store handles of a *newer* schema open older cache directories without
complaint: unknown kinds and unaddressable keys are simply reported
as-is by the maintenance surface and removed by ``clear``.

Integrity: every ``put`` records the payload's sha256 in the meta
record, and every ``get`` verifies it before returning bytes (metas
written by older releases, without a checksum, fall back to a size
check -- schema-tolerant recovery).  A payload that fails verification,
or a payload/meta pair that is inconsistent (one present without the
other, meta truncated mid-write), is *quarantined*: both files move to
``<root>/quarantine/<kind>/`` and the read reports a miss, so callers
transparently recompute instead of consuming garbage.  ``threadfuser
cache info`` reports quarantined objects; ``cache clear --quarantined``
purges them.  Transient ``OSError`` on the raw file operations is
retried with exponential backoff (see :mod:`repro.faults`).

Every mutation -- put, quarantine, clear -- is also handed to the
sqlite result index (:mod:`repro.index`), which is how it stays
consistent with the store incrementally: the :attr:`ArtifactStore.index`
handle is created lazily by the first put (or the first query), and
backfills from the existing entries when its database file does not
exist yet.  Index failures never fail a store operation (the index
degrades to a warning and is restored by ``threadfuser index
rebuild``).
"""

from __future__ import annotations

import hashlib
import io as _stdio
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from . import faults
from .errors import ArtifactCorruptError, TraceCorruptError
from .tracer import io as trace_io
from .tracer.events import TraceSet

#: Bump to invalidate every previously stored artifact (schema change in
#: any serialized stage output or in the tracer/analyzer semantics).
#: v2: replay metrics grew observability fields (SIMT-stack depth
#: high-water mark, reconvergence events, lock serialization entries),
#: changing the pickled report/dcfg layout.
SCHEMA_VERSION = 2

#: Pickle protocol is pinned so equal objects serialize byte-identically
#: across interpreter invocations.
_PICKLE_PROTOCOL = 4

KIND_TRACES = "traces"
KIND_DCFGS = "dcfgs"
KIND_REPORT = "report"
KIND_TELEMETRY = "telemetry"
KINDS = (KIND_TRACES, KIND_DCFGS, KIND_REPORT, KIND_TELEMETRY)

_EXT = {
    KIND_TRACES: "trace",
    KIND_DCFGS: "pkl",
    KIND_REPORT: "pkl",
    KIND_TELEMETRY: "json",
}

#: Backoff schedule for transient ``OSError`` on raw file operations.
_IO_RETRY = faults.RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.5)

_QUARANTINE_HINT = ("inspect with 'threadfuser cache info', purge with "
                    "'threadfuser cache clear --quarantined'; the entry "
                    "is recomputed on the next run")


def default_cache_dir() -> str:
    """The CLI's default store root (``$THREADFUSER_CACHE_DIR`` wins)."""
    env = os.environ.get("THREADFUSER_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "threadfuser")


def _canonical_pickle(obj: Any) -> bytes:
    """Pickle ``obj`` so the bytes depend only on values, not sharing.

    The standard pickler memoizes repeated objects, so two structurally
    equal reports serialize differently depending on whether their
    strings happen to be shared -- which they are after a serial replay
    but not after results cross a worker-process boundary.  Fast mode
    disables the memo; self-referential graphs cannot use it, so those
    fall back to a plain dump.
    """
    buffer = _stdio.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=_PICKLE_PROTOCOL)
    pickler.fast = True
    try:
        pickler.dump(obj)
    except (ValueError, RecursionError):
        return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)
    return buffer.getvalue()


def fingerprint_key(fields: Dict[str, Any]) -> str:
    """Canonical content address for a fingerprint dict.

    ``fields`` must be JSON-serializable; key order does not matter.
    The store schema version is always folded in.
    """
    payload = dict(fields)
    payload["schema"] = SCHEMA_VERSION
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/byte counters for one store handle (per process).

    ``corrupt`` counts objects that failed verification on read and
    were quarantined (each such read also counts as a miss, because the
    caller recomputes).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    corrupt: int = 0

    def __str__(self) -> str:
        return (f"hits={self.hits} misses={self.misses} puts={self.puts} "
                f"corrupt={self.corrupt} "
                f"read={self.bytes_read}B written={self.bytes_written}B")


@dataclass
class ArtifactEntry:
    """One stored object, as reported by :meth:`ArtifactStore.entries`."""

    kind: str
    key: str
    size: int
    fingerprint: Dict[str, Any] = field(default_factory=dict)


class ArtifactStore:
    """Content-addressed store for trace/dcfg/report artifacts."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(os.path.expanduser(root))
        self.stats = CacheStats()
        self._index: Optional[Any] = None
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
        marker = os.path.join(self.root, "store.json")
        if not os.path.exists(marker):
            self._atomic_write(
                marker,
                json.dumps({"schema": SCHEMA_VERSION}).encode() + b"\n",
            )

    @property
    def index(self):
        """The store's :class:`repro.index.ResultIndex` (lazy).

        Created on first access and backfilled with one rebuild when
        its ``index.db`` does not exist yet but the store already holds
        entries.  From then on every put/quarantine/clear is applied to
        it through :meth:`~repro.index.ResultIndex.on_store_event`.
        """
        if self._index is None:
            from .index import ResultIndex  # deferred: index imports us

            self._index = ResultIndex(self)
            self._index.ensure_built()
        return self._index

    # -- paths -----------------------------------------------------------

    def _paths(self, kind: str, key: str):
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        directory = os.path.join(self.root, "objects", kind, key[:2])
        payload = os.path.join(directory, f"{key}.{_EXT[kind]}")
        meta = os.path.join(directory, f"{key}.meta.json")
        return directory, payload, meta

    def payload_path(self, kind: str, fields: Dict[str, Any]) -> str:
        """Where the payload for ``fields`` lives (whether or not present)."""
        return self._paths(kind, fingerprint_key(fields))[1]

    @staticmethod
    def _atomic_write(path: str, data: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- integrity helpers -----------------------------------------------

    def _read_meta(self, path: str) -> Optional[Dict[str, Any]]:
        """The parsed meta record, or ``None`` when absent/unreadable.

        A truncated or garbled ``.meta.json`` (crash mid-write, disk
        rot) parses to ``None`` -- the caller treats the whole entry as
        inconsistent rather than trusting an unverifiable payload.
        """
        try:
            with open(path, "rb") as inp:
                raw = inp.read()
        except OSError:
            return None
        raw = faults.mangle("artifact.meta", raw)
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def quarantine(self, kind: str, key: str) -> int:
        """Move the payload/meta pair of ``key`` out of ``objects/``.

        Quarantined files keep their names under
        ``<root>/quarantine/<kind>/`` so they can be inspected (or
        salvaged) by hand; returns how many files were moved.
        """
        _, payload, meta = self._paths(kind, key)
        target_dir = os.path.join(self.root, "quarantine", kind)
        moved = 0
        for path in (payload, meta):
            if not os.path.exists(path):
                continue
            os.makedirs(target_dir, exist_ok=True)
            try:
                os.replace(path, os.path.join(target_dir,
                                              os.path.basename(path)))
                moved += 1
            except OSError:
                pass
        if self._index is not None:
            self._index.on_store_event("remove", kind=kind, key=key)
        return moved

    def _corrupt(self, kind: str, key: str, reason: str,
                 on_corrupt: str) -> Optional[bytes]:
        """Record and quarantine one corrupt entry; miss or raise."""
        self.stats.corrupt += 1
        self.stats.misses += 1
        moved = self.quarantine(kind, key)
        if on_corrupt == "raise":
            raise ArtifactCorruptError(
                f"{kind} artifact {key[:12]}.. is corrupt: {reason} "
                f"({moved} file(s) quarantined)",
                site="artifact.read", hint=_QUARANTINE_HINT,
            )
        return None

    # -- raw byte interface ----------------------------------------------

    def has(self, kind: str, fields: Dict[str, Any]) -> bool:
        """Whether a *consistent* entry exists (payload and meta)."""
        _, payload, meta = self._paths(kind, fingerprint_key(fields))
        return os.path.exists(payload) and os.path.exists(meta)

    def get_bytes(self, kind: str, fields: Dict[str, Any],
                  on_corrupt: str = "miss") -> Optional[bytes]:
        """Verified payload bytes, or ``None`` on a miss.

        Every read is checked against the meta record's sha256 (size
        for pre-checksum metas).  A failed check, or a payload/meta
        pair with one side missing or unreadable, quarantines the entry
        and -- with the default ``on_corrupt="miss"`` -- reports a
        miss so the caller recomputes.  ``on_corrupt="raise"`` raises
        :class:`~repro.errors.ArtifactCorruptError` instead (strict
        consumers, fuzz harnesses).
        """
        return self.read_key(kind, fingerprint_key(fields), on_corrupt)

    def read_key(self, kind: str, key: str,
                 on_corrupt: str = "miss",
                 count_stats: bool = True) -> Optional[bytes]:
        """Like :meth:`get_bytes`, addressed by stored key.

        The maintenance surface (and the result index's rebuild) walks
        meta records whose fingerprints may have been written under
        another schema version, making them unaddressable through
        :func:`fingerprint_key`; this reads -- with full checksum
        verification and quarantine-on-failure -- by the key the meta
        record itself declares.

        ``count_stats=False`` keeps the read out of the hit/miss
        counters: internal maintenance reads (an index rebuild walking
        every entry) must not inflate the cache-effectiveness stats
        that sessions report.  Corruption is always counted -- it is a
        real event regardless of who found it.
        """
        _, payload, meta = self._paths(kind, key)
        meta_record = self._read_meta(meta)
        if meta_record is None:
            if not os.path.exists(payload) and not os.path.exists(meta):
                if count_stats:
                    self.stats.misses += 1
                return None
            return self._corrupt(
                kind, key, "meta record missing or unreadable", on_corrupt
            )

        def read() -> bytes:
            faults.check("io.transient", "get")
            with open(payload, "rb") as inp:
                return inp.read()

        try:
            data = faults.call_with_retry(
                read, policy=_IO_RETRY, label=f"read {kind} {key[:12]}",
                site="io.transient",
            )
        except FileNotFoundError:
            return self._corrupt(
                kind, key, "payload missing (meta present)", on_corrupt
            )
        data = faults.mangle("artifact.read", data)
        expected = meta_record.get("sha256")
        if isinstance(expected, str):
            actual = hashlib.sha256(data).hexdigest()
            if actual != expected:
                return self._corrupt(
                    kind, key,
                    f"payload failed checksum (expected {expected[:12]}.., "
                    f"got {actual[:12]}..)",
                    on_corrupt,
                )
        elif isinstance(meta_record.get("size"), int) \
                and meta_record["size"] != len(data):
            return self._corrupt(
                kind, key,
                f"payload size {len(data)} != recorded "
                f"{meta_record['size']} (pre-checksum meta)",
                on_corrupt,
            )
        if count_stats:
            self.stats.hits += 1
            self.stats.bytes_read += len(data)
        return data

    def put_bytes(self, kind: str, fields: Dict[str, Any],
                  data: bytes) -> str:
        key = fingerprint_key(fields)
        _, payload, meta = self._paths(kind, key)
        meta_record = {
            "kind": kind,
            "key": key,
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "schema": SCHEMA_VERSION,
            "fingerprint": fields,
        }
        meta_bytes = (json.dumps(meta_record, sort_keys=True) + "\n").encode()

        def write() -> None:
            faults.check("io.transient", "put")
            # Payload first: a crash in between leaves payload-without-
            # meta, which reads as an inconsistent entry (a miss), never
            # as a trusted object.
            self._atomic_write(payload, data)
            self._atomic_write(meta, meta_bytes)

        faults.call_with_retry(
            write, policy=_IO_RETRY, label=f"write {kind} {key[:12]}",
            site="io.transient",
        )
        self.stats.puts += 1
        self.stats.bytes_written += len(data)
        if self._index is None:
            try:
                self.index  # lazy-attach the result index
            except Exception:
                # A broken index must never fail an artifact write; the
                # next index operation reports the typed failure.
                pass
        self._index.on_store_event("put", kind=kind, key=key,
                                   fields=fields, data=data)
        return payload

    # -- typed helpers ---------------------------------------------------

    def get_traces(self, fields: Dict[str, Any],
                   program=None) -> Optional[TraceSet]:
        """A verified, decoded :class:`TraceSet`, or ``None`` on a miss.

        A payload that passes the byte checksum but still fails trace
        decoding (format drift inside one schema version, injected
        stream corruption) is quarantined and reported as a miss --
        the caller re-traces instead of analyzing garbage.
        """
        data = self.get_bytes(KIND_TRACES, fields)
        if data is None:
            return None
        try:
            return trace_io.load_traces(_stdio.BytesIO(data),
                                        program=program)
        except TraceCorruptError:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.stats.hits -= 1
            self.quarantine(KIND_TRACES, fingerprint_key(fields))
            return None

    def put_traces(self, fields: Dict[str, Any], traces: TraceSet) -> str:
        return self.put_bytes(
            KIND_TRACES, fields, serialize_traces(traces)
        )

    def get_object(self, kind: str, fields: Dict[str, Any]) -> Optional[Any]:
        data = self.get_bytes(kind, fields)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except Exception:
            # Checksum-valid but unpicklable: layout drift within one
            # schema version.  Quarantine and recompute.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.stats.hits -= 1
            self.quarantine(kind, fingerprint_key(fields))
            return None

    def put_object(self, kind: str, fields: Dict[str, Any],
                   obj: Any) -> str:
        return self.put_bytes(kind, fields, _canonical_pickle(obj))

    # -- maintenance surface (threadfuser cache {info,ls,clear}) ---------

    def entries(self) -> List[ArtifactEntry]:
        found: List[ArtifactEntry] = []
        objects = os.path.join(self.root, "objects")
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in sorted(filenames):
                if not name.endswith(".meta.json"):
                    continue
                try:
                    with open(os.path.join(dirpath, name)) as inp:
                        record = json.load(inp)
                except (OSError, ValueError):
                    continue
                if not isinstance(record, dict):
                    # Valid JSON, wrong shape (foreign tooling): skip
                    # it like any other unreadable meta.
                    continue
                found.append(ArtifactEntry(
                    kind=record.get("kind", "?"),
                    key=record.get("key", ""),
                    size=record.get("size", 0),
                    fingerprint=record.get("fingerprint", {}),
                ))
        # Deterministic regardless of directory-walk order: by kind,
        # then workload (mixed-schema fingerprints may lack one), then
        # key -- the order ``threadfuser cache ls`` prints.
        found.sort(key=lambda e: (
            e.kind,
            str((e.fingerprint or {}).get("workload") or ""),
            e.key,
        ))
        return found

    def disk_schema(self) -> Optional[int]:
        """The schema recorded in the directory's ``store.json``.

        ``None`` when the marker is missing or unreadable.  May differ
        from :data:`SCHEMA_VERSION` when the directory was written by an
        older release; such entries are simply unaddressable (and show
        up in :meth:`info` under whatever kinds they were stored as).
        """
        marker = os.path.join(self.root, "store.json")
        try:
            with open(marker) as inp:
                record = json.load(inp)
        except (OSError, ValueError):
            return None
        schema = record.get("schema")
        return schema if isinstance(schema, int) else None

    def quarantined(self) -> Dict[str, int]:
        """Count/byte totals of the quarantine tree.

        ``count`` is the number of distinct quarantined objects (a
        payload and its meta count once); ``bytes`` sums every file.
        """
        top = os.path.join(self.root, "quarantine")
        stems = set()
        total = 0
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in filenames:
                stems.add(name.split(".", 1)[0])
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return {"count": len(stems), "bytes": total}

    def clear_quarantined(self) -> int:
        """Delete the quarantine tree; returns objects removed."""
        top = os.path.join(self.root, "quarantine")
        removed = self.quarantined()["count"]
        for dirpath, _dirnames, filenames in os.walk(top, topdown=False):
            for name in filenames:
                try:
                    os.unlink(os.path.join(dirpath, name))
                except OSError:
                    pass
            try:
                os.rmdir(dirpath)
            except OSError:
                pass
        return removed

    def info(self) -> Dict[str, Any]:
        """Store summary for ``threadfuser cache info``.

        ``by_kind`` always lists every known kind (zero counts
        included) and additionally any kind found on disk that this
        release does not know -- entries written under another schema
        are counted, never an error.  ``quarantined`` reports objects
        that failed verification and were moved aside.
        """
        entries = self.entries()
        by_kind: Dict[str, Dict[str, int]] = {
            kind: {"count": 0, "bytes": 0} for kind in KINDS
        }
        for entry in entries:
            bucket = by_kind.setdefault(entry.kind, {"count": 0, "bytes": 0})
            bucket["count"] += 1
            bucket["bytes"] += entry.size
        return {
            "root": self.root,
            "schema": SCHEMA_VERSION,
            "disk_schema": self.disk_schema(),
            "entries": len(entries),
            "bytes": sum(e.size for e in entries),
            "by_kind": by_kind,
            "quarantined": self.quarantined(),
        }

    def clear(self, kind: Optional[str] = None) -> int:
        """Remove stored artifacts; returns the number deleted.

        Without ``kind`` the whole ``objects/`` tree is cleared --
        including kinds this release does not know about, so stale
        entries from older schemas are garbage-collected too.
        """
        removed = 0
        if kind is None:
            tops: Iterable[str] = (os.path.join(self.root, "objects"),)
        else:
            tops = (os.path.join(self.root, "objects", kind),)
        for top in tops:
            for dirpath, _dirnames, filenames in os.walk(top):
                for name in filenames:
                    path = os.path.join(dirpath, name)
                    if name.endswith(".meta.json"):
                        removed += 1
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        if self._index is not None:
            self._index.on_store_event("clear", kind=kind)
        return removed


def serialize_traces(traces: TraceSet) -> bytes:
    """The exact bytes :meth:`ArtifactStore.put_traces` persists.

    Trace format v3: packs each thread once (the pack stays cached on
    the trace, so a following replay reuses it) and copies its columns.
    """
    buffer = _stdio.BytesIO()
    trace_io.save_traces(traces, buffer)
    return buffer.getvalue()


__all__ = [
    "SCHEMA_VERSION",
    "KIND_TRACES",
    "KIND_DCFGS",
    "KIND_REPORT",
    "KIND_TELEMETRY",
    "KINDS",
    "ArtifactEntry",
    "ArtifactStore",
    "CacheStats",
    "default_cache_dir",
    "fingerprint_key",
    "serialize_traces",
]
