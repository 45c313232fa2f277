"""``repro.pool``: the parallel-execution substrate.

Every way the pipeline runs work on other processes lives here, on one
substrate:

* the **persistent worker pool** (:class:`WorkerPool`), the only code
  that spawns, messages, times out and respawns worker processes:
  workers are spawned once and reused across replay and sweep calls,
  health-checked before every batch, respawned on crashes, and shut
  down cleanly at interpreter exit (or explicitly).  Its one job in
  the pipeline is lock-step warp replay.
  Tasks ship as ``(callable, payload, fault_token)`` triples -- the
  callable is pickled *by reference*, exactly like
  ``ProcessPoolExecutor.submit``, so the parent's current module
  attributes (including monkeypatched ones) decide what runs.  Replay
  runs on the process-wide :func:`shared_pool`.  A worker first points
  every socket it inherited, other than its own pipe, at
  ``/dev/null``: it holds no embedding server's listener or clients
  open, and reads EOF once its parent is gone;

* the **shared-memory column arena** (:class:`ColumnArena`): the
  packed columns of a whole :class:`~repro.tracer.events.TraceSet`
  written once into a ``multiprocessing.shared_memory`` segment.
  Workers attach the segment and rebuild every trace zero-copy via
  :meth:`~repro.tracer.packed.PackedTrace.from_shm` -- ``memoryview``
  casts over the shared bytes, nothing deserialized -- with the
  content-signature verification of locally packed traces intact.  A
  ref-counted registry ties each arena to its ``TraceSet`` (closed via
  ``weakref.finalize`` when the traces are collected, or explicitly by
  ``AnalysisSession.close``), unlinks segments eagerly, retries
  transient unlink failures, and re-reaps anything left at exit so no
  ``/dev/shm`` segment outlives the process.

Failure policy: infrastructure failures -- a killed or hung worker, a
failed arena attach, a broken pipe -- are *retryable*
(:func:`repro.faults.is_retryable`) and surface as ``None`` results so
callers fall back to the bit-identical serial path.  A worker exception
that is a bug re-raises immediately in the parent with the worker's
traceback chained as ``__cause__``.  The fault sites ``pool.spawn`` /
``pool.worker`` / ``pool.result`` fire on this substrate, plus the two
shared-memory sites ``pool.attach`` (worker-side, before mapping an
arena) and ``shm.unlink`` (parent-side, before releasing a segment);
see :mod:`repro.faults`.

Because workers are reused, per-worker state is explicit: the active
fault plan is re-broadcast at the start of every batch (the moral
equivalent of fork inheriting it), and arenas and large objects (DCFG
tables) are pushed once and cached per worker.  Nothing else outlives
a call: each replay shard memoizes warps in a table of its own.

Wire protocol (one duplex pipe per worker, one reply per request)::

    parent -> worker   ("plan", FaultPlan|None)       re-arm fault plan
                       ("attach", name, descriptors)  map a column arena
                       ("detach", name)               unmap it
                       ("put", key, obj) / ("del", key)  resident state
                       ("task", fn, payload, token)   run one task
                       ("ping",)                      health probe
                       ("exit",)                      clean shutdown
    worker -> parent   ("ok", value)                  the reply
                       ("err", encoded_exc)           the request raised
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import stat
import time
import traceback
import warnings
import weakref
from collections import OrderedDict, deque
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import faults
from .errors import WorkerCrashError
from .tracer.events import ThreadTrace, TraceSet
from .tracer.packed import PackedTrace

#: Max objects cached per worker via ``put`` (oldest evicted first).
STATE_CAP = 8

#: The pid that imported this module -- arena/pool teardown is a no-op
#: in any other process, so a forked worker exiting (or collecting an
#: inherited ``TraceSet``) can never unlink a segment the parent still
#: uses.
_OWNER_PID = os.getpid()

_ARENA_IDS = itertools.count(1)
_WORKER_IDS = itertools.count(1)
_STATE_IDS = itertools.count(1)

_WARNED: set = set()


def warn_once(key: str, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per process per key."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


# -- capability probes ----------------------------------------------------

_SHM_OK: Optional[bool] = None


def shm_supported() -> bool:
    """True when POSIX shared memory works here (probed once)."""
    global _SHM_OK
    if _SHM_OK is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _SHM_OK = True
        except Exception:
            _SHM_OK = False
    return _SHM_OK


def start_method() -> str:
    """The start method the persistent pool uses on this platform."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


# -- remote exception transport ------------------------------------------


class RemoteTraceback(Exception):
    """Carrier for a worker's formatted traceback (the ``__cause__``)."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return self.text


def _encode_exc(exc: BaseException) -> tuple:
    """Worker side: pickle ``exc`` (best effort) plus its traceback text."""
    text = "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = None
    return payload, f"{type(exc).__name__}: {exc}", text


def _decode_exc(encoded: tuple) -> BaseException:
    """Parent side: rebuild the worker exception, traceback chained."""
    payload, summary, text = encoded
    exc: Optional[BaseException] = None
    if payload is not None:
        try:
            exc = pickle.loads(payload)
        except Exception:
            exc = None
    if exc is None:
        exc = WorkerCrashError(
            f"pool worker raised an unpicklable exception: {summary}",
            site="pool.worker",
            hint="see the chained remote traceback for the original error",
        )
    exc.__cause__ = RemoteTraceback("\n" + text)
    return exc


# -- shared-memory column arena ------------------------------------------


class ColumnArena:
    """One ``TraceSet``'s packed columns in a shared-memory segment.

    Built (and content-verified) in the parent; workers attach by name
    and rebuild every thread trace zero-copy from the descriptors.
    Closing detaches the workers, closes the mapping, and unlinks the
    segment -- with one retry and an atexit reclamation pass behind the
    ``shm.unlink`` fault site, so a transient unlink failure degrades
    to a deferred release instead of a leak.
    """

    def __init__(self, shm, descriptors: Tuple[tuple, ...], nbytes: int,
                 workload: str = "") -> None:
        self.shm = shm
        self.name = shm.name
        self.descriptors = descriptors
        self.nbytes = nbytes
        self.workload = workload
        self.owner_pid = os.getpid()
        self.closed = False

    @classmethod
    def build(cls, traces: TraceSet) -> "ColumnArena":
        """Pack, verify, and export every thread of ``traces``."""
        packs: List[PackedTrace] = []
        total = 0
        for trace in traces.threads:
            packed = trace.packed()
            packed.ensure_verified()
            packs.append(packed)
            total += packed.shm_nbytes()
        shm = _create_segment(max(total, 1))
        try:
            offset = 0
            descriptors = []
            for trace, packed in zip(traces.threads, packs):
                descriptor, offset = packed.to_shm(shm.buf, offset)
                descriptors.append(
                    (trace.index, trace.cpu_tid, trace.root, descriptor))
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, tuple(descriptors), total,
                   workload=traces.workload)

    def close(self) -> None:
        """Detach workers, close the mapping, unlink the segment."""
        if self.closed or os.getpid() != self.owner_pid:
            return
        self.closed = True
        _ARENAS.pop(self.name, None)
        pool = _SHARED.get("pool")
        if pool is not None and not pool.closed:
            pool.detach_arena(self.name)
        try:
            self.shm.close()
        except BufferError:
            # Someone still holds column views over the mapping; the
            # pages are released when those views die.  Unlink anyway.
            pass
        self._unlink()

    def _unlink(self) -> None:
        for _attempt in (0, 1):
            try:
                faults.check("shm.unlink", self.name)
                self.shm.unlink()
                return
            except FileNotFoundError:
                return
            except OSError:
                continue
        _LEAKED.append(self.name)
        warn_once(
            "shm-unlink-deferred",
            f"could not unlink shared-memory segment {self.name!r}; "
            "release deferred to interpreter exit",
        )

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"<ColumnArena {self.name} traces={len(self.descriptors)} "
                f"bytes={self.nbytes} {state}>")


def _create_segment(size: int):
    """A named segment with a recognizable ``tfuser`` prefix."""
    for _ in range(64):
        name = f"tfuser-{os.getpid()}-{next(_ARENA_IDS)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True,
                                              size=size)
        except FileExistsError:
            continue
    # Pathological namespace collision; let the stdlib pick a name.
    return shared_memory.SharedMemory(create=True, size=size)


#: Open arenas by segment name (this process's only).
_ARENAS: Dict[str, ColumnArena] = {}
#: ``TraceSet`` -> segment name (weak keys: collecting the traces
#: triggers the finalizer below, which closes the arena).
_TRACESET_ARENAS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: Segments whose unlink failed twice; re-reaped at exit.
_LEAKED: List[str] = []


def _close_arena_by_name(name: str, owner_pid: int) -> None:
    if os.getpid() != owner_pid:
        return
    arena = _ARENAS.get(name)
    if arena is not None:
        arena.close()


def arena_for(traces: TraceSet) -> ColumnArena:
    """The (cached) arena of ``traces``; built on first use."""
    name = _TRACESET_ARENAS.get(traces)
    if name is not None:
        arena = _ARENAS.get(name)
        if arena is not None and not arena.closed:
            return arena
    arena = ColumnArena.build(traces)
    _ARENAS[arena.name] = arena
    _TRACESET_ARENAS[traces] = arena.name
    weakref.finalize(traces, _close_arena_by_name, arena.name, os.getpid())
    return arena


def release_arena(traces: TraceSet) -> None:
    """Close the arena of ``traces`` now (idempotent, no-op if none)."""
    name = _TRACESET_ARENAS.pop(traces, None)
    if name is None:
        return
    arena = _ARENAS.get(name)
    if arena is not None:
        arena.close()


def live_arenas() -> List[ColumnArena]:
    """The open arenas of this process (test/diagnostic surface)."""
    return [arena for arena in _ARENAS.values() if not arena.closed]


def leaked_segments() -> List[str]:
    """Segment names whose unlink is deferred to exit (normally empty)."""
    return list(_LEAKED)


# -- per-object state tokens ---------------------------------------------

_STATE_TOKENS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def state_token(obj) -> str:
    """A stable identity token for broadcasting ``obj`` to workers.

    Monotonic, never recycled (unlike ``id()``), so a worker-cached
    object can never be confused with a later object at the same
    address.
    """
    token = _STATE_TOKENS.get(obj)
    if token is None:
        token = f"state-{next(_STATE_IDS)}"
        _STATE_TOKENS[obj] = token
    return token


# -- worker side ----------------------------------------------------------


class _WorkerContext:
    """Per-worker resident state (pipe, arenas, pushed objects)."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.arenas: Dict[str, tuple] = {}
        self.state: Dict[str, Any] = {}

    def attach(self, name: str, descriptors: Sequence[tuple]) -> float:
        if name in self.arenas:
            return 0.0
        started = time.perf_counter()
        faults.check("pool.attach", name)
        # Attaching would register the segment with the resource
        # tracker (py3.11 has no ``track=False``), and fork workers
        # share the parent's tracker process -- so a worker-side
        # registration (or a later unregister) would clobber the
        # parent's own bookkeeping of a segment it still owns.  The
        # parent created the segment; only the parent tracks it.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *_a, **_k: None
        try:
            seg = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        traces: Dict[int, ThreadTrace] = {}
        for index, cpu_tid, root, descriptor in descriptors:
            trace = ThreadTrace(index, cpu_tid, root)
            trace.attach_packed(PackedTrace.from_shm(descriptor, seg.buf))
            traces[index] = trace
        self.arenas[name] = (seg, traces)
        return time.perf_counter() - started

    def detach(self, name: str) -> None:
        entry = self.arenas.pop(name, None)
        if entry is None:
            return
        seg, traces = entry
        traces.clear()
        try:
            seg.close()
        except BufferError:
            import gc

            gc.collect()
            try:
                seg.close()
            except BufferError:
                pass  # views still alive; freed when they die


#: Set inside :func:`_worker_main`; pool-resident task functions (the
#: replay shard) read their arenas and state through it.
_WORKER_CTX: Optional[_WorkerContext] = None


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but descriptor ``keep`` at ``/dev/null``.

    A forked worker inherits every descriptor its parent holds: an
    embedding server's listener and connections, and the parent's end
    of each worker pipe -- its own among them, which would keep it from
    ever reading EOF once the parent is gone.  ``dup2``, not ``close``:
    the inherited socket objects still own those numbers, and must never
    close a file that reuses one.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            fd = int(name)
            try:
                if fd == keep or not stat.S_ISSOCK(os.fstat(fd).st_mode):
                    continue
            except OSError:
                continue  # the listing's own descriptor, closed by now
            os.dup2(null, fd)
    finally:
        os.close(null)


def _worker_main(conn) -> None:
    """The persistent worker loop: one reply per received message."""
    global _WORKER_CTX
    _drop_inherited_sockets(conn.fileno())
    ctx = _WorkerContext(conn)
    _WORKER_CTX = ctx
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "exit":
            break
        try:
            if kind == "ping":
                reply = ("ok", os.getpid())
            elif kind == "plan":
                faults.install(message[1])
                reply = ("ok", None)
            elif kind == "attach":
                reply = ("ok", ctx.attach(message[1], message[2]))
            elif kind == "detach":
                ctx.detach(message[1])
                reply = ("ok", None)
            elif kind == "put":
                ctx.state[message[1]] = message[2]
                reply = ("ok", None)
            elif kind == "del":
                ctx.state.pop(message[1], None)
                reply = ("ok", None)
            elif kind == "task":
                _fn, payload, _token = message[1], message[2], message[3]
                reply = ("ok", _fn(payload))
            else:
                raise ValueError(f"unknown pool message {kind!r}")
        except Exception as exc:
            reply = ("err", _encode_exc(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # the reply did not pickle
            conn.send(("err", _encode_exc(exc)))


def _shm_replay_shard(payload: tuple) -> tuple:
    """Pool-resident task: replay one shard of warps from an arena.

    ``payload``: ``(arena_name, state_key, cfg, entries)`` where
    ``entries`` is ``[(warp_index, [thread_index, ...]), ...]``.
    Returns :func:`repro.core.analyzer.replay_warps`'s ``(results,
    memo_lookups, memo_hits, vector_tokens, total_tokens)``.

    Each call gets a fresh memo, as the serial path does, so a hit
    reuses only a warp of the same shard.  Lane signatures come from
    ``ThreadTrace.signature``, which verifies the shared columns
    against their content hash on first use -- attach corruption
    surfaces as :class:`~repro.errors.TraceCorruptError`, a retryable
    failure answered by the serial fallback.
    """
    ctx = _WORKER_CTX
    if ctx is None:
        raise RuntimeError("replay shard dispatched outside a pool worker")
    arena_name, state_key, cfg, entries = payload
    faults.check("pool.worker",
                 f"replay:{entries[0][0] if entries else '-'}")
    entry = ctx.arenas.get(arena_name)
    if entry is None:
        raise WorkerCrashError(
            f"arena {arena_name!r} is not attached in this worker",
            site="pool.attach",
            hint="the attach failed or was evicted; the batch falls back",
        )
    dcfgs = ctx.state.get(state_key)
    if dcfgs is None:
        raise WorkerCrashError(
            f"state {state_key!r} is not resident in this worker",
            site="pool.worker",
            hint="the state push failed or was evicted; the batch falls "
                 "back",
        )
    from .core.analyzer import replay_warps

    traces = entry[1]
    warps = ((warp_index, [traces[i] for i in lanes])
             for warp_index, lanes in entries)
    return replay_warps(warps, dcfgs, cfg, {})


def _probe_task(payload):
    """Diagnostic task used by health checks and ``pool info``."""
    return payload


# -- the persistent pool --------------------------------------------------


class _Slot:
    """One persistent worker: process, pipe, and resident-state shadow."""

    __slots__ = ("process", "conn", "arenas", "state", "respawned")

    def __init__(self) -> None:
        self.process = None
        self.conn = None
        #: Parent-side shadows of what the worker holds, so batches
        #: only push what is missing.
        self.arenas: set = set()
        self.state: "OrderedDict[str, bool]" = OrderedDict()
        #: Set once a batch respawned this slot (one respawn per slot
        #: per batch; a second loss drains the slot's tasks to None).
        self.respawned = False


class _SlotLost(Exception):
    """Internal: the worker behind a slot died or desynced."""


class WorkerPool:
    """A spawn-once, crash-respawning pool of persistent workers.

    The request/reply protocol is strictly sequential per worker (one
    in-flight task each), so a worker whose pipe desyncs -- killed
    mid-task, timed out, or hit by an injected ``pool.result`` fault --
    is never reused: it is killed and respawned fresh.  Everything a
    worker holds (fault plan, arenas, pushed state) is re-pushed
    automatically after a respawn.
    """

    def __init__(self) -> None:
        self._mp = multiprocessing.get_context(start_method())
        self._slots: List[_Slot] = []
        self._pending_detaches: List[str] = []
        self._in_batch = False
        self._spawned_in_ensure = False
        self.closed = False
        self.stats: Dict[str, float] = {
            "spawned": 0, "respawns": 0, "batches": 0, "reused_batches": 0,
            "tasks": 0, "task_failures": 0, "worker_failures": 0,
            "attaches": 0, "attach_s": 0.0,
        }

    # -- lifecycle ------------------------------------------------------

    def ensure_workers(self, n: int) -> List[_Slot]:
        """At least ``n`` healthy workers (spawning/respawning as needed).

        Returns the usable slots -- possibly fewer than ``n`` when
        spawning fails partway but at least one worker is alive.
        Raises ``OSError`` (retryable) when no worker can be had.
        """
        if self.closed:
            raise OSError("worker pool is closed")
        n = max(1, int(n))
        self._spawned_in_ensure = False
        for slot in self._slots:
            if slot.process is not None and not slot.process.is_alive():
                self._kill_slot(slot)
        try:
            while len(self._slots) < n:
                self._slots.append(_Slot())
            for slot in self._slots[:n]:
                if slot.process is None:
                    faults.check("pool.spawn")
                    self._start_slot(slot)
        except (ValueError, OSError):
            alive = [s for s in self._slots if s.process is not None]
            if not alive:
                raise
            return alive[:n]
        return [s for s in self._slots[:n] if s.process is not None]

    def _start_slot(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
            name=f"threadfuser-pool-{next(_WORKER_IDS)}",
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.arenas = set()
        slot.state = OrderedDict()
        self.stats["spawned"] += 1
        self._spawned_in_ensure = True

    def _kill_slot(self, slot: _Slot) -> None:
        process, conn = slot.process, slot.conn
        slot.process = slot.conn = None
        slot.arenas = set()
        slot.state = OrderedDict()
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            try:
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            except (OSError, ValueError, AttributeError):
                pass

    def close(self) -> None:
        """Shut every worker down cleanly (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for slot in self._slots:
            if slot.process is None:
                continue
            try:
                slot.conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=1.0)
            self._kill_slot(slot)
        self._slots = []

    def workers(self) -> List[Tuple[int, bool]]:
        """``(pid, alive)`` of every started worker, without a round trip."""
        processes = [slot.process for slot in list(self._slots)]
        return [(process.pid, process.is_alive())
                for process in processes if process is not None]

    def workers_alive(self) -> int:
        """How many worker processes are currently alive (0..jobs)."""
        return sum(1 for _pid, alive in self.workers() if alive)

    # -- arena bookkeeping ----------------------------------------------

    def detach_arena(self, name: str) -> None:
        """Tell every worker to drop ``name`` (deferred during a batch).

        Arena finalizers can fire at arbitrary points (gc), including
        while a batch's request/reply stream is in flight; injecting a
        detach there would desync the protocol, so it is queued and
        flushed at the batch boundary instead.
        """
        if self.closed:
            return
        if self._in_batch:
            self._pending_detaches.append(name)
            return
        for slot in self._slots:
            if slot.process is None or name not in slot.arenas:
                continue
            slot.arenas.discard(name)
            try:
                slot.conn.send(("detach", name))
                if not slot.conn.poll(5.0):
                    raise OSError("detach timed out")
                slot.conn.recv()
            except (OSError, EOFError, ValueError):
                self._kill_slot(slot)

    def _flush_detaches(self) -> None:
        while self._pending_detaches:
            self.detach_arena(self._pending_detaches.pop())

    # -- batch execution ------------------------------------------------

    def run_tasks(self, tasks: Sequence[tuple], *, jobs: Optional[int] = None,
                  stage_timeout: Optional[float] = None,
                  arenas: Sequence[ColumnArena] = (),
                  state: Sequence[Tuple[str, Any]] = (),
                  ) -> List[Any]:
        """Run ``tasks = [(fn, payload, fault_token), ...]`` on the pool.

        Returns one result per task, in task order; a task whose worker
        failed *retryably* yields ``None`` (callers fall back to the
        serial path for it).  A non-retryable worker exception -- a bug
        -- aborts the batch and re-raises here with the remote
        traceback as ``__cause__``.

        ``stage_timeout`` is the per-task deadline in **seconds**
        (``None``: wait forever); a worker that exceeds it is killed
        and counted as a retryable failure.  ``arenas`` and ``state``
        are pushed to each participating worker before its first task
        unless the worker already holds them; the active fault plan is
        re-broadcast every batch so worker-side sites stay
        deterministic despite reuse.
        """
        if self.closed:
            raise OSError("worker pool is closed")
        if not tasks:
            return []
        self._flush_detaches()
        n = min(len(tasks), jobs if jobs else len(tasks))
        workers = self.ensure_workers(n)
        n = min(n, len(workers))
        workers = workers[:n]
        plan = faults.active()
        queues: Dict[_Slot, deque] = {slot: deque() for slot in workers}
        for index in range(len(tasks)):
            queues[workers[index % n]].append(index)
        results: List[Any] = [None] * len(tasks)
        self.stats["batches"] += 1
        if not self._spawned_in_ensure:
            self.stats["reused_batches"] += 1
        for slot in workers:
            slot.respawned = False
        self._in_batch = True
        try:
            self._run_batch(tasks, results, queues, plan, arenas, state,
                            stage_timeout)
        finally:
            self._in_batch = False
            self._flush_detaches()
        return results

    def _run_batch(self, tasks, results, queues, plan, arenas, state,
                   stage_timeout) -> None:
        inflight: Dict[_Slot, Tuple[int, Optional[float]]] = {}
        prepared: set = set()
        #: Task indices whose parent-side ``pool.result`` check already
        #: fired.  Every task gets exactly one such check -- at reply
        #: consumption normally, at abandonment otherwise -- so
        #: injected-fault hit counts are a deterministic function of
        #: the plan and the task list.
        checked: set = set()

        def consume_check(index: int) -> bool:
            if index in checked:
                return True
            checked.add(index)
            try:
                faults.check("pool.result", tasks[index][2])
                return True
            except Exception as exc:
                if not faults.is_retryable(exc):
                    abort(exc)
                self.stats["task_failures"] += 1
                return False

        def drop_queue(slot: _Slot) -> None:
            while queues[slot]:
                consume_check(queues[slot].popleft())

        def respawn(slot: _Slot) -> bool:
            if slot.respawned:
                return False
            slot.respawned = True
            try:
                faults.check("pool.spawn")
                self._start_slot(slot)
            except (ValueError, OSError):
                return False
            self.stats["respawns"] += 1
            prepared.discard(slot)
            return True

        def lose(slot: _Slot) -> None:
            self.stats["worker_failures"] += 1
            entry = inflight.pop(slot, None)
            self._kill_slot(slot)
            prepared.discard(slot)
            if entry is not None:
                consume_check(entry[0])
            if respawn(slot):
                activate(slot)
            else:
                drop_queue(slot)

        def abort(exc: BaseException) -> None:
            # A bug propagates immediately; any worker still mid-task
            # has an unread reply coming, so it cannot be reused.
            for slot in list(inflight):
                inflight.pop(slot, None)
                self._kill_slot(slot)
            raise exc

        def activate(slot: _Slot) -> None:
            """Push setup if needed, then send the slot's next task."""
            while queues[slot]:
                if slot not in prepared:
                    try:
                        self._setup_slot(slot, plan, arenas, state,
                                         stage_timeout)
                        prepared.add(slot)
                    except _SlotLost:
                        self.stats["worker_failures"] += 1
                        self._kill_slot(slot)
                        if not respawn(slot):
                            drop_queue(slot)
                            return
                        continue
                    except Exception as exc:
                        if not faults.is_retryable(exc):
                            abort(exc)
                        self.stats["task_failures"] += 1
                        drop_queue(slot)
                        return
                index = queues[slot][0]
                fn, payload, token = tasks[index]
                try:
                    slot.conn.send(("task", fn, payload, token))
                except (OSError, ValueError):
                    self.stats["worker_failures"] += 1
                    self._kill_slot(slot)
                    prepared.discard(slot)
                    if not respawn(slot):
                        drop_queue(slot)
                        return
                    continue
                queues[slot].popleft()
                deadline = (time.monotonic() + stage_timeout
                            if stage_timeout else None)
                inflight[slot] = (index, deadline)
                return

        def handle_reply(slot: _Slot) -> None:
            index = inflight[slot][0]
            try:
                status, value = slot.conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                lose(slot)
                return
            if not consume_check(index):
                # An injected result timeout: the worker counts as hung.
                lose(slot)
                return
            del inflight[slot]
            if status == "ok":
                results[index] = value
                self.stats["tasks"] += 1
            else:
                exc = _decode_exc(value)
                if not faults.is_retryable(exc):
                    abort(exc)
                self.stats["task_failures"] += 1
            activate(slot)

        for slot in list(queues):
            activate(slot)
        while inflight:
            now = time.monotonic()
            expired = [slot for slot, (_i, deadline) in inflight.items()
                       if deadline is not None and deadline <= now]
            for slot in expired:
                if slot in inflight:
                    lose(slot)  # hung worker: timeout, retryable
            if not inflight:
                break
            deadlines = [deadline for _i, deadline in inflight.values()
                         if deadline is not None]
            timeout = (max(0.0, min(deadlines) - time.monotonic())
                       if deadlines else None)
            obj_map = {}
            for slot in inflight:
                obj_map[slot.conn] = slot
                obj_map[slot.process.sentinel] = slot
            ready = _conn_wait(list(obj_map), timeout)
            handled = set()
            for obj in ready:
                slot = obj_map[obj]
                if slot in handled or slot not in inflight:
                    continue
                handled.add(slot)
                if slot.conn is not None and slot.conn.poll(0):
                    handle_reply(slot)
                else:
                    lose(slot)  # sentinel fired: the worker died

    def _setup_slot(self, slot, plan, arenas, state, stage_timeout) -> None:
        self._request(slot, ("plan", plan), stage_timeout)
        for arena in arenas:
            if arena.name in slot.arenas:
                continue
            elapsed = self._request(
                slot, ("attach", arena.name, arena.descriptors),
                stage_timeout)
            slot.arenas.add(arena.name)
            self.stats["attaches"] += 1
            self.stats["attach_s"] += float(elapsed)
        for key, value in state:
            if key in slot.state:
                slot.state.move_to_end(key)
                continue
            while len(slot.state) >= STATE_CAP:
                oldest, _ = slot.state.popitem(last=False)
                self._request(slot, ("del", oldest), stage_timeout)
            self._request(slot, ("put", key, value), stage_timeout)
            slot.state[key] = True

    def _request(self, slot: _Slot, message: tuple,
                 stage_timeout: Optional[float]):
        """One synchronous setup round-trip with ``slot``'s worker."""
        try:
            slot.conn.send(message)
            if stage_timeout is not None and not slot.conn.poll(stage_timeout):
                raise _SlotLost("setup timed out")
            status, value = slot.conn.recv()
        except (OSError, EOFError, pickle.UnpicklingError, ValueError):
            raise _SlotLost("worker pipe failed during setup") from None
        if status == "ok":
            return value
        raise _decode_exc(value)

    def ping(self, timeout: float = 5.0) -> List[int]:
        """Round-trip every live worker; returns their pids.

        ``timeout`` is the per-worker reply deadline in **seconds**;
        a worker that misses it is killed (and respawned on next use).
        """
        pids = []
        for slot in self._slots:
            if slot.process is None:
                continue
            try:
                pid = self._request(slot, ("ping",), timeout)
            except _SlotLost:
                self._kill_slot(slot)
                continue
            pids.append(pid)
        return pids


# -- the process-wide shared pool ----------------------------------------

_SHARED: Dict[str, Optional[WorkerPool]] = {"pool": None}


def shared_pool() -> WorkerPool:
    """The process-wide persistent pool (created on first use)."""
    pool = _SHARED["pool"]
    if pool is None or pool.closed:
        pool = WorkerPool()
        _SHARED["pool"] = pool
    return pool


def substrate_active() -> bool:
    """True once the persistent substrate has been touched at all."""
    pool = _SHARED["pool"]
    return pool is not None or bool(_ARENAS) or bool(_LEAKED)


def shutdown() -> None:
    """Close every arena and the shared pool; re-reap deferred unlinks.

    Registered via ``atexit``; callable any time (tests use it to get a
    cold pool).  A no-op in forked children -- teardown belongs to the
    process that created the substrate.
    """
    if os.getpid() != _OWNER_PID:
        return
    for arena in list(_ARENAS.values()):
        arena.close()
    pool = _SHARED["pool"]
    if pool is not None:
        pool.close()
        _SHARED["pool"] = None
    for name in list(_LEAKED):
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            continue
        _LEAKED.remove(name)


atexit.register(shutdown)


def _reset_after_fork() -> None:
    """Forget substrate state inherited across a fork.

    A forked child inherits these module globals by reference: a live
    :class:`WorkerPool` whose ``Process`` handles cannot even be
    liveness-checked from the child (``multiprocessing`` raises "can
    only test a child process"), plus arena registrations the parent
    owns.  Dropping the references -- never closing them, teardown
    belongs to the owner process -- leaves the child with a cold
    substrate of its own.
    """
    global _OWNER_PID
    _OWNER_PID = os.getpid()
    _SHARED["pool"] = None
    _ARENAS.clear()
    _TRACESET_ARENAS.clear()
    _LEAKED.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


# -- orchestration entry points ------------------------------------------


def replay_warps_shared(traces: TraceSet, warps, dcfgs, cfg, jobs: int, *,
                        obs=None) -> Optional[tuple]:
    """Replay ``warps`` on the persistent pool via a shared-memory arena.

    Returns ``(results, memo_lookups, memo_hits, vector_tokens,
    total_tokens)`` exactly like the serial
    :func:`repro.core.analyzer.replay_warps`, with results re-sorted by
    warp index so aggregation order (and therefore every dict insertion
    order in the report) matches the serial path.  Returns ``None``
    when the substrate is unavailable or failed retryably (callers fall
    back to serial).  Warps are striped across workers (shard ``j`` ->
    worker ``j``); every worker attaches the arena and receives the
    DCFGs once, and later calls over the same traces reuse both.
    """
    if len(warps) < 2 or not shm_supported():
        return None
    jobs = min(jobs, len(warps))
    try:
        pool = shared_pool()
        arena = arena_for(traces)
        token = state_token(dcfgs)
        shards = [[(index, [trace.index for trace in warps[index]])
                   for index in range(j, len(warps), jobs)]
                  for j in range(jobs)]
        tasks = [(_shm_replay_shard, (arena.name, token, cfg, shard),
                  f"replay:{shard[0][0]}")
                 for shard in shards]
        outcomes = pool.run_tasks(tasks, jobs=jobs, arenas=(arena,),
                                  state=((token, dcfgs),))
    except Exception as exc:
        if faults.is_retryable(exc):
            return None
        raise
    if any(outcome is None for outcome in outcomes):
        # Partial results are discarded wholesale: the serial fallback
        # is bit-identical anyway.
        return None
    results = sorted((item for outcome in outcomes for item in outcome[0]),
                     key=lambda item: item[0])
    lookups, hits, vector_tokens, total_tokens = (
        sum(outcome[k] for outcome in outcomes) for k in range(1, 5))
    if obs is not None and obs.enabled:
        export_gauges(obs)
    return results, lookups, hits, vector_tokens, total_tokens


# -- observability --------------------------------------------------------


def stats_snapshot() -> Dict[str, float]:
    """Counters of the persistent substrate, for ``pool.*`` gauges."""
    snapshot: Dict[str, float] = {}
    pool = _SHARED["pool"]
    if pool is not None:
        snapshot.update(pool.stats)
        snapshot["workers"] = pool.workers_alive()
    live = live_arenas()
    snapshot["arenas"] = len(live)
    snapshot["arena_bytes"] = sum(arena.nbytes for arena in live)
    snapshot["leaked_segments"] = len(_LEAKED)
    return snapshot


def export_gauges(obs) -> None:
    """Export :func:`stats_snapshot` as ``pool.*`` gauges on ``obs``."""
    for key, value in sorted(stats_snapshot().items()):
        if isinstance(value, float):
            value = round(value, 6)
        obs.gauge(f"pool.{key}", value)


def probe_info(jobs: int = 2, probe: bool = True) -> Dict[str, Any]:
    """The ``threadfuser pool info`` payload.

    With ``probe`` (the default) this spins up the shared pool, runs
    two echo batches (demonstrating reuse), and attaches a tiny
    synthetic arena to measure attach latency; without it, only the
    static capabilities and current stats are reported.
    """
    info: Dict[str, Any] = {
        "start_method": start_method(),
        "shm_supported": shm_supported(),
    }
    if probe:
        traces = TraceSet(workload="pool-probe")
        for tid in range(2):
            traces.new_thread(tid, "probe").tokens = [("B", 0x1000, 1, ())]
        pool = shared_pool()
        tasks = [(_probe_task, index, f"probe:{index}")
                 for index in range(max(1, jobs))]
        arena = arena_for(traces)
        try:
            pool.run_tasks(tasks, jobs=jobs, arenas=(arena,))
            pool.run_tasks(tasks, jobs=jobs, arenas=(arena,))
            info["ping_pids"] = pool.ping()
        finally:
            release_arena(traces)
    info.update(stats_snapshot())
    return info


__all__ = [
    "STATE_CAP",
    "ColumnArena",
    "RemoteTraceback",
    "WorkerPool",
    "arena_for",
    "export_gauges",
    "leaked_segments",
    "live_arenas",
    "probe_info",
    "release_arena",
    "replay_warps_shared",
    "shared_pool",
    "shm_supported",
    "shutdown",
    "start_method",
    "state_token",
    "stats_snapshot",
    "substrate_active",
    "warn_once",
]
