"""``repro.shards``: the horizontal serving substrate.

:mod:`repro.serve` runs one :class:`~repro.session.AnalysisSession`
behind one runner thread -- parallelism lives *inside* a job.  This
module adds the orthogonal axis: a :class:`ShardPool` of N shards, each
a one-worker :class:`~repro.pool.WorkerPool` whose worker process owns
a private ``jobs=1`` session over the *shared* artifact store.  The
serve dispatcher splits a sweep into per-width **cells** and fans them
across the shards, so independent jobs (and the independent widths of
one sweep) run concurrently.  Coalescing and the job registry stay in
the serve parent, so they hold across shards; every shard session
opens the same ``cache_dir``, so a report one shard computed is
store-warm for all of them.

This module is dispatch only: per-shard work queues and threads,
least-loaded routing, ``should_run`` skips and attempt-salted retries.
Spawning, messaging, fault-plan re-arming and respawn are
:mod:`repro.pool`'s, on its one wire protocol: a cell is one
:meth:`~repro.pool.WorkerPool.run_tasks` call of :func:`_run_cell`,
whose stage progress streams back as pool progress messages.

* **A lost worker costs an attempt.**  A worker that dies mid-cell
  (the ``serve.shard`` kill fault or a real crash), breaks its pipe or
  fails to spawn is respawned by the pool and the cell re-runs, up to
  :data:`MAX_CELL_ATTEMPTS` times, then fails with a typed
  :class:`ShardCrashError`.  Cells are deterministic and
  content-addressed, so re-runs store bit-identical bytes.
* **A cell error is a result.**  A cell that raises returns its
  exception as the task's result, and the job fails with that type,
  site and hint after one attempt -- the pool's retryable-error policy
  (which serves replay's serial fallback) never sees it.

``threadfuser pool info --shards N`` boots a throwaway pool via
:func:`probe_shards` and prints the same per-shard document the
server reports.
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from . import faults
from .core.analyzer import AnalyzerConfig
from .errors import WorkerCrashError
from .obs import StageRecorder
from .pool import WorkerPool, report_progress, start_method
from .session import AnalysisSession

#: How many times a cell is attempted before it fails typed (first run
#: plus respawn re-runs).  Attempt indices salt the ``serve.shard``
#: fault token, so a rate-based kill does not deterministically re-fire
#: on the re-run.
MAX_CELL_ATTEMPTS = 3

@functools.lru_cache(maxsize=None)
def _shard_session(settings: tuple) -> AnalysisSession:
    """The worker's session, built once from the settings cells carry."""
    return AnalysisSession(**dict(settings, jobs=1))


def _run_cell(payload) -> Dict[str, Any]:
    """Pool-resident task: one analyze cell on the worker's session.

    ``payload`` is ``(settings, cell)``.  Returns the report itself (the
    parent summarizes it), the cell's telemetry JSON and its machine
    executions -- or ``{"error": exc}`` when the cell raised.
    """
    settings, cell = payload
    try:
        faults.check("serve.shard", cell["token"])
        session = _shard_session(tuple(sorted(settings.items())))
        executions_before = session.executions
        session.obs = StageRecorder(report_progress)
        report = session.analyze(
            cell["workload"],
            n_threads=cell["n_threads"],
            seed=cell["seed"],
            opt_level=cell["opt_level"],
            config=AnalyzerConfig(
                warp_size=cell["warp_size"],
                batching=cell["batching"],
                emulate_locks=cell["emulate_locks"],
                lock_reconvergence=cell["lock_reconvergence"],
            ),
        )
        return {
            "report": report,
            "telemetry": session.telemetry().to_json(),
            "executions": session.executions - executions_before,
        }
    except Exception as exc:  # noqa: BLE001 - the cell's typed outcome
        return {"error": exc}


class _ShardSlot:
    """One shard: its worker pool, work queue, and dispatch counters."""

    __slots__ = ("index", "pool", "work", "thread", "busy", "stats")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pool = WorkerPool()
        self.work: "queue.Queue" = queue.Queue()
        self.thread: Optional[threading.Thread] = None
        self.busy = False
        self.stats: Dict[str, int] = {
            "cells_done": 0, "cells_failed": 0, "cells_skipped": 0,
            "executions": 0,
        }


class ShardCrashError(WorkerCrashError):
    """A shard worker was lost more times than the cell retry budget."""


class ShardPool:
    """N one-worker pools behind per-shard work queues.

    Parameters
    ----------
    count:
        Number of shards (worker processes).
    config:
        :class:`~repro.session.AnalysisSession` keyword arguments for
        each shard's private session (``cache_dir`` pointing at the
        shared store).  Shard sessions always run
        with ``jobs=1``: a shard worker is a daemonic pool worker and
        cannot start a replay pool of its own.

    Each slot owns a dedicated dispatch thread draining its work
    queue, so each one-worker pool is driven by exactly one thread
    while cells on different shards run concurrently.  The pool
    re-arms the active fault plan before every cell and respawns a
    lost worker with its session rebuilt -- resident caches are lost,
    the shared store is not.
    """

    def __init__(self, count: int,
                 config: Optional[Dict[str, Any]] = None) -> None:
        self.count = max(1, int(count))
        self.config = dict(config or {})
        self.closed = False
        self._slots = [_ShardSlot(index) for index in range(self.count)]
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn every shard worker and start the dispatch threads.

        A worker that fails to spawn here is spawned by its shard's
        first cell instead (costing that cell an attempt if it fails
        again).
        """
        for slot in self._slots:
            try:
                slot.pool.ensure_workers(1)
            except (ValueError, OSError):
                pass
            slot.thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"tf-shard-{slot.index}", daemon=True)
            slot.thread.start()

    def close(self) -> None:
        """Drain the threads and shut every shard down (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for slot in self._slots:
            slot.work.put(None)
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=10.0)
        for slot in self._slots:
            slot.pool.close()

    # -- dispatch --------------------------------------------------------

    def pick(self) -> int:
        """Index of the least-loaded shard (queue depth + busy flag)."""
        with self._lock:
            return min(
                self._slots,
                key=lambda s: (s.work.qsize() + (1 if s.busy else 0),
                               s.index),
            ).index

    def outstanding(self) -> int:
        """Cells queued or running across every shard."""
        with self._lock:
            return sum(slot.work.qsize() + (1 if slot.busy else 0)
                       for slot in self._slots)

    def submit(self, cell: Dict[str, Any], *,
               shard: Optional[int] = None,
               on_stage: Optional[Callable[[str], None]] = None,
               should_run: Optional[Callable[[], bool]] = None,
               on_complete: Callable[..., None]) -> int:
        """Queue one cell; returns the shard index it was routed to.

        ``on_complete(payload, exc, shard_index, skipped)`` fires on
        the shard's dispatch thread: exactly one of ``payload`` (the
        worker's result document) and ``exc`` is set unless
        ``should_run`` vetoed the cell (``skipped=True``, both
        ``None``).
        """
        if self.closed:
            raise OSError("shard pool is closed")
        index = self.pick() if shard is None else shard
        self._slots[index].work.put(
            ("cell", cell, on_stage, should_run, on_complete))
        return index

    def ping(self, timeout: float = 10.0) -> List[Dict[str, Any]]:
        """Round-trip every shard through its work queue; info docs."""
        boxes = []
        for slot in self._slots:
            box: "queue.Queue" = queue.Queue()
            slot.work.put(("ping", box))
            boxes.append((slot, box))
        infos = []
        for slot, box in boxes:
            try:
                infos.append(box.get(timeout=timeout))
            except queue.Empty:
                infos.append({"pid": None, "shard": slot.index,
                              "error": "ping timed out"})
        return infos

    # -- the per-shard dispatch thread -----------------------------------

    def _slot_loop(self, slot: _ShardSlot) -> None:
        while True:
            item = slot.work.get()
            if item is None:
                return
            if item[0] == "ping":
                item[1].put(self._ping_slot(slot))
                continue
            _kind, cell, on_stage, should_run, on_complete = item
            if should_run is not None and not should_run():
                with self._lock:
                    slot.stats["cells_skipped"] += 1
                on_complete(None, None, slot.index, True)
                continue
            with self._lock:
                slot.busy = True
            payload = exc = None
            try:
                payload = self._drive_cell(slot, cell, on_stage)
            except Exception as caught:  # noqa: BLE001 - typed onward
                exc = caught
            finally:
                with self._lock:
                    slot.busy = False
                    if exc is not None:
                        slot.stats["cells_failed"] += 1
                    elif payload is not None:
                        slot.stats["cells_done"] += 1
                        slot.stats["executions"] += int(
                            payload.get("executions", 0))
            on_complete(payload, exc, slot.index, False)

    def _ping_slot(self, slot: _ShardSlot) -> Dict[str, Any]:
        try:
            slot.pool.ensure_workers(1)
            pid = slot.pool.ping(timeout=10.0)[0]
        except (ValueError, OSError, IndexError) as exc:
            return {"pid": None, "shard": slot.index,
                    "error": f"ping failed: {exc}"}
        return {"pid": pid, "shard": slot.index}

    def _drive_cell(self, slot: _ShardSlot, cell: Dict[str, Any],
                    on_stage) -> Dict[str, Any]:
        """Run one cell, re-running it while its worker is lost."""
        base_token = cell.get("token", "")
        forward = (None if on_stage is None
                   else lambda _index, stage: on_stage(stage))
        last_loss = ""
        for attempt in range(1, MAX_CELL_ATTEMPTS + 1):
            token = f"{base_token}#{attempt}"
            task = (_run_cell, (self.config, dict(cell, token=token)),
                    token)
            try:
                [outcome] = slot.pool.run_tasks([task],
                                                on_progress=forward)
            except Exception as exc:  # noqa: BLE001 - classified below
                # A worker that could not be spawned is retryable; a
                # bug is not.
                if not faults.is_retryable(exc):
                    raise
                last_loss = f"no worker: {exc}"
                continue
            if outcome is None:
                last_loss = "worker lost mid-cell"
                continue
            if "error" in outcome:
                raise outcome["error"]
            return outcome
        raise ShardCrashError(
            f"shard {slot.index} lost its worker {MAX_CELL_ATTEMPTS} times "
            f"running cell {base_token!r} (last: {last_loss})",
            site="serve.shard",
            hint="the cell is deterministic -- persistent crashes mean a "
                 "real bug or resource exhaustion; check shard logs/rlimits",
        )

    # -- observability ---------------------------------------------------

    def busy_count(self) -> int:
        """How many shards are running a cell right now."""
        with self._lock:
            return sum(1 for slot in self._slots if slot.busy)

    def health(self) -> List[Dict[str, Any]]:
        """One document per shard: liveness, load, and counters.

        Pid and liveness come from the parent's process handle, never
        a round trip, so a busy shard answers immediately.
        ``respawns`` counts every replaced worker process.
        """
        docs = []
        with self._lock:
            for slot in self._slots:
                workers = slot.pool.workers()
                pid, alive = workers[0] if workers else (None, False)
                docs.append({
                    "shard": slot.index,
                    "pid": pid,
                    "alive": alive,
                    "queue": slot.work.qsize(),
                    "busy": slot.busy,
                    **slot.stats,
                    "respawns": max(0, slot.pool.stats["spawned"] - 1),
                })
        return docs


def probe_shards(count: int = 2,
                 cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Boot a throwaway :class:`ShardPool`, ping it, and report.

    The ``threadfuser pool info --shards N`` payload: the same
    per-shard documents ``/v1/health`` serves, measured on a pool that
    existed only for the probe.
    """
    pool = ShardPool(count, {"cache_dir": cache_dir})
    t0 = time.perf_counter()
    pool.start()
    spawn_s = time.perf_counter() - t0
    try:
        infos = pool.ping()
        detail = pool.health()
        for doc, info in zip(detail, infos):
            doc["ping"] = info
    finally:
        pool.close()
    return {
        "shards": count,
        "start_method": start_method(),
        "spawn_s": round(spawn_s, 6),
        "detail": detail,
    }


__all__ = [
    "MAX_CELL_ATTEMPTS",
    "ShardCrashError",
    "ShardPool",
    "probe_shards",
]
