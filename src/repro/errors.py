"""The ``ReproError`` taxonomy: every pipeline failure has a type.

Long batch pipelines (tracing dozens of workloads, replaying warps,
correlating against the hardware oracle) treat failures as routine, not
exceptional: a fork-pool worker dies, a cache object rots on disk, a
trace file is truncated mid-write.  Each of those must surface as a
*typed*, *actionable* error -- never as unpickled garbage or a silently
wrong metric.

Hierarchy::

    ReproError
    ├── ArtifactCorruptError    # cache payload failed its checksum
    ├── TraceCorruptError       # trace stream truncated or garbled
    ├── WorkerCrashError        # a fork-pool worker died abruptly
    ├── StageTimeoutError       # a stage exceeded its deadline
    ├── RetryExhaustedError     # retries + serial fallback all failed
    ├── IndexCorruptError       # result index (index.db) unreadable
    ├── MachineError            # execution errors (repro.machine.errors)
    └── TelemetryError          # telemetry document errors (repro.obs)

Every :class:`ReproError` carries an optional ``site`` (the named
injection/failure point, see :mod:`repro.faults`) and a ``hint`` -- one
sentence telling the operator what to do about it.  The CLI prints both
(see :func:`repro.cli.main`).

:class:`TraceCorruptError` additionally subclasses :class:`ValueError`
so pre-taxonomy call sites catching ``ValueError`` around trace loading
keep working.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of every typed pipeline failure.

    Parameters
    ----------
    message:
        Human-readable description of what failed.
    site:
        The named failure site (``"pool.worker"``, ``"artifact.read"``,
        ...), when known.  Matches the site names of
        :mod:`repro.faults`.
    hint:
        One actionable sentence for the operator (printed by the CLI
        below the error itself).
    """

    def __init__(self, message: str, *, site: Optional[str] = None,
                 hint: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.hint = hint

    def payload(self) -> dict:
        """The error as a JSON-safe document.

        Returns ``{"type", "message", "site", "hint"}`` -- the shape
        the serving layer (:mod:`repro.serve`) puts in the body of
        typed 5xx responses, carrying the same fields the CLI prints.
        ``site`` falls back to the first site found on the
        ``__cause__`` chain, so a :class:`RetryExhaustedError` that
        wraps transient IO failures still names ``io.transient``.
        """
        site = self.site
        cause = self.__cause__
        while site is None and cause is not None:
            site = getattr(cause, "site", None)
            cause = getattr(cause, "__cause__", None)
        return {
            "type": type(self).__name__,
            "message": str(self),
            "site": site,
            "hint": self.hint,
        }


class ArtifactCorruptError(ReproError):
    """A stored artifact's payload failed its sha256 checksum (or its
    metadata is inconsistent).  The store quarantines such objects; see
    ``threadfuser cache info`` / ``cache clear --quarantined``."""


class TraceCorruptError(ReproError, ValueError):
    """A trace stream is truncated, garbled, or fails its checksum or
    a structural check.

    Raised by :func:`repro.tracer.io.load_traces` *before* any partial
    data can reach the analyzer.  Subclasses :class:`ValueError` for
    backward compatibility with pre-taxonomy catch sites.
    """


class IndexCorruptError(ReproError):
    """The sqlite result index (``index.db``) is locked beyond the
    retry budget, corrupt, or written under another schema.  Queries
    raise this instead of ever answering from an untrustworthy
    database; ``threadfuser index rebuild`` regenerates the file from
    the artifact store (which is never affected)."""


class WorkerCrashError(ReproError):
    """A fork-pool worker terminated abruptly (killed, OOM, crashed)."""


class StageTimeoutError(ReproError):
    """A pipeline stage exceeded its deadline."""


class RetryExhaustedError(ReproError):
    """Retries with backoff and the serial fallback all failed.

    The ``__cause__`` chain preserves the last underlying error.
    """


__all__ = [
    "ReproError",
    "ArtifactCorruptError",
    "TraceCorruptError",
    "WorkerCrashError",
    "StageTimeoutError",
    "RetryExhaustedError",
    "IndexCorruptError",
]
