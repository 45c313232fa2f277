"""``repro.obs``: the observability layer of the analysis pipeline.

Lightweight structured instrumentation threaded through every pipeline
layer -- hierarchical stage timers on :class:`~repro.session.
AnalysisSession` (build/transform/trace/prepare/replay/report), replay
counters on :class:`~repro.core.analyzer.ThreadFuserAnalyzer` (warps,
issues, SIMT-stack depth high-water mark, reconvergence events, lock
serialization), machine-level instruction/memory-event counters, and
artifact-store hit/miss/byte gauges.

Three pieces:

* :class:`Recorder` / :class:`NullRecorder` -- the write side.  Pass a
  ``Recorder()`` to a session or analyzer to profile it; by default
  everything holds the shared :data:`NULL_RECORDER`, whose probes are
  constant-time no-ops.
* :class:`Telemetry` -- the collected result: span tree + counters +
  gauges, exportable as schema-versioned ``telemetry.json``
  (:data:`TELEMETRY_SCHEMA_VERSION`), loadable, mergeable.
* The CLI surface -- ``--profile`` on workload commands and the
  ``threadfuser profile`` subcommand (see :mod:`repro.cli`).

See ``docs/OBSERVABILITY.md`` for the telemetry model, the JSON schema
with a worked example, and the profiling cookbook.
"""

from .recorder import NULL_RECORDER, NullRecorder, Recorder, StageRecorder
from .telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    SpanNode,
    Telemetry,
    TelemetryError,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SpanNode",
    "StageRecorder",
    "Telemetry",
    "TelemetryError",
    "TELEMETRY_SCHEMA_VERSION",
]
