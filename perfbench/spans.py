"""In-memory span recorder and the layer wrappers of the traced run.

The traced run wraps the public entry point of each layer (the table in
``perfbench/README.md``) in a span.  A span records its name, start,
end, parent span and op id; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time
its child spans cover.  Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Spans:
    """Records spans per thread, plus counters taken at the same calls.

    ``clock`` is ``time.perf_counter`` in the harness.  The server
    launcher passes ``time.time`` so its spans line up with the job
    documents' ``created``/``started``/``finished`` stamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[id, name, start, end, parent_id, op, thread]`` per span.
        self.records: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: The op the harness is running; stamped on every new span.
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        record = [next(self._ids), name, self.clock(), None, parent,
                  self.op, threading.current_thread().name]
        stack.append(record)
        self.records.append(record)
        return record

    def exit(self, record: list) -> None:
        record[3] = self.clock()
        self._stack().pop()

    def add(self, name: str, start: float, end: float,
            op: Optional[int], parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. from job stamps)."""
        span_id = next(self._ids)
        self.records.append([span_id, name, start, end, parent, op, ""])
        return span_id

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             counter: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``counter(spans, args, result)``, when given, runs after each
        call to take counts from the arguments and the result.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = spans.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.exit(record)
            if counter is not None:
                counter(spans, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self, ops: Optional[set] = None) -> Dict[str, float]:
        """Self seconds per span name, over spans of ``ops`` (all if None)."""
        records = [r for r in self.records if r[3] is not None
                   and (ops is None or r[5] in ops)]
        child_time: Dict[int, float] = defaultdict(float)
        for record in records:
            if record[4] is not None:
                child_time[record[4]] += record[3] - record[2]
        out: Dict[str, float] = defaultdict(float)
        for record in records:
            out[record[1]] += record[3] - record[2] - child_time[record[0]]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.records, "counts": self.counts}, out)

    def load(self, path: str) -> Tuple[List[list], Dict[str, float]]:
        """Add the spans another process dumped; returns them and its counts.

        Span ids are shifted past this recorder's own, so parent links
        stay inside the loaded set.
        """
        with open(path) as inp:
            doc = json.load(inp)
        offset = next(self._ids)
        loaded = [[span_id + offset, name, start, end,
                   None if parent is None else parent + offset, op, thread]
                  for span_id, name, start, end, parent, op, thread
                  in doc["spans"]]
        self._ids = itertools.count(
            max([offset] + [record[0] for record in loaded]) + 1)
        self.records.extend(loaded)
        return loaded, doc["counts"]


# -- the layer map ---------------------------------------------------------


def _count_machine(spans: Spans, _args, result) -> None:
    traces, _machine = result
    spans.count("machine.thread_instructions", traces.total_instructions)


def _count_replay(spans: Spans, args, report) -> None:
    analyzer = args[0]
    spans.count("core.issues", report.metrics.issues)
    spans.count("core.thread_instructions", report.metrics.thread_instructions)
    gauges = getattr(analyzer.obs, "gauges", None)
    if gauges and "memo.warp_lookups" in gauges:
        # Gauges are set anew by every analyze call of a memoizing,
        # vectorizing analyzer; read them right after the call.
        spans.count("memo.warp_lookups", gauges["memo.warp_lookups"])
        spans.count("memo.warp_hits", gauges["memo.warp_hits"])
        spans.count("replay.vector_tokens", gauges["replay.vector_tokens"])
        spans.count("replay.vector_total_tokens",
                    gauges["replay.vector_total_tokens"])


def _count_pool(spans: Spans, _args, outcome) -> None:
    if outcome is None:
        spans.count("pool.fallbacks")


def _count_write(spans: Spans, args, _result) -> None:
    spans.count("artifacts.bytes_written", len(args[3]))


def _count_gpu(spans: Spans, _args, stats) -> None:
    spans.count("simulator.warp_instructions", stats.instructions)


def install(spans: Spans) -> None:
    """Wrap every layer's public entry point (see the README table)."""
    from repro import artifacts, pool
    from repro.core.analyzer import ThreadFuserAnalyzer
    from repro.cpusim.model import CPUSimulator
    from repro.index import ResultIndex
    from repro.session import AnalysisSession
    from repro.simulator import speedup
    from repro.simulator.gpu import GPUSimulator
    from repro.tracer.packed import PackedTrace
    from repro.workloads import runner
    from repro.workloads.base import Workload

    spans.wrap(Workload, "instantiate", "workloads.build")
    spans.wrap(runner, "execute_traced", "machine.run", _count_machine)
    spans.wrap(PackedTrace, "from_tokens", "tracer.pack")
    spans.wrap(PackedTrace, "from_records", "tracer.pack")
    spans.wrap(ThreadFuserAnalyzer, "prepare", "core.prepare")
    spans.wrap(ThreadFuserAnalyzer, "analyze", "core.replay", _count_replay)
    spans.wrap(pool, "replay_warps_shared", "pool.replay", _count_pool)
    spans.wrap(artifacts, "serialize_traces", "artifacts.serialize")
    spans.wrap(artifacts.ArtifactStore, "put_object", "artifacts.serialize")
    spans.wrap(artifacts.ArtifactStore, "put_bytes", "artifacts.write",
               _count_write)
    spans.wrap(artifacts.ArtifactStore, "get_object", "artifacts.read")
    spans.wrap(artifacts.ArtifactStore, "get_traces", "artifacts.read")
    spans.wrap(artifacts.ArtifactStore, "has", "artifacts.read")
    spans.wrap(ResultIndex, "on_store_event", "index.write")
    spans.wrap(AnalysisSession, "analyze", "session")
    spans.wrap(AnalysisSession, "replay", "session")
    spans.wrap(speedup, "generate_kernel_trace", "tracegen.generate")
    # Building the GPU model (its L2) is GPU-model work too.
    spans.wrap(GPUSimulator, "__init__", "simulator.gpu")
    spans.wrap(GPUSimulator, "run", "simulator.gpu", _count_gpu)
    spans.wrap(CPUSimulator, "run", "cpusim.cpu")
