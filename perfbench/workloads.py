"""The four benchmark workloads.

Each workload is a fixed, seed-generated list of operations against
repro's public entry points.  A workload object is built from
``(seed, scale, work_dir, traced)`` and runs in four steps:

* ``setup()`` -- the workload's own set-up, timed as ``setup_s``;
* ``run_ops(spans)`` -- the timed phase: every op of the list, once;
* ``check()`` -- untimed cross-checks of the outputs (each mismatch
  counts as a failed op);
* ``teardown()`` -- releases every process, arena and connection.

``scale`` is ``--seconds`` over the reference run length; it sets how
many ops the list holds, never when the run stops.  See README.md for
why each workload exists and which layers it moves.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro import pool as pool_mod
from repro.core.analyzer import AnalyzerConfig
from repro.gpuref import LockstepGPU
from repro.obs import Recorder
from repro.serve import summarize_report
from repro.session import AnalysisSession
from repro.simulator import project_speedup, rtx3070, small_simt_cpu

import dial
from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILED = math.inf


# -- shared helpers ----------------------------------------------------------


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile (failed ops are ``inf`` and sort last)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def numbers(report) -> list:
    """The deterministic results of one analysis, for the output digest."""
    m = report.metrics
    return [report.workload, report.warp_size, repr(report.simt_efficiency),
            m.issues, m.thread_instructions, report.heap_transactions,
            report.stack_transactions]


def doc_numbers(doc: dict) -> list:
    """:func:`numbers` of a ``summarize_report`` document."""
    return [doc["workload"], doc["warp_size"], repr(doc["simt_efficiency"]),
            doc["issues"], doc["thread_instructions"],
            doc["heap_transactions"], doc["stack_transactions"]]


def digest(rows: list) -> str:
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def five_groups(rng: random.Random, groups, per_group: int,
                seeds: set) -> List[Tuple[str, int, int]]:
    """``per_group`` ops of each of five workloads, each with a fresh seed.

    With five equal groups, p50 lands at the centre of the third group
    and p90 at the centre of the fifth, whatever order their costs
    take -- never in a gap between two workloads.
    """
    ops = []
    for name, threads in groups:
        for _ in range(per_group):
            seed = rng.randrange(1, 1 << 30)
            while seed in seeds:
                seed = rng.randrange(1, 1 << 30)
            seeds.add(seed)
            ops.append((name, threads, seed))
    rng.shuffle(ops)
    return ops


class Workload:
    """Common state: the op list's results, latencies and failures."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.  Cheap
    #: set-ups repeat more, so the median is steady.
    SETUP_REPS = 3
    #: Host-speed samples run between ops, in line with the timed
    #: phase (and are subtracted from its wall time).
    INLINE_SAMPLING = True
    #: Names of the latency lists this workload reports.
    latency_lists = ("ops",)

    def __init__(self, seed: int, scale: float, work_dir: str,
                 traced: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.traced = traced
        self.rng = random.Random(f"{self.name}:{seed}")
        self.latencies: Dict[str, List[float]] = {
            name: [] for name in self.latency_lists}
        #: Host wall-clock start time of each latency sample.
        self.starts: Dict[str, List[float]] = {
            name: [] for name in self.latency_lists}
        self.rows: List[list] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: op id -> label, for per-op span grouping.
        self.op_labels: Dict[int, str] = {}
        self.host = HostSpeed()
        #: Pool fault counters, taken before teardown (design_sweep).
        self.fault_counts: Dict[str, float] = {}
        #: The server's ``/v1/health`` document and span counts
        #: (serve_mixed).
        self.health: dict = {}
        self.server_counts: Dict[str, float] = {}

    def record(self, kind: str, start: float, latency: float) -> None:
        self.starts[kind].append(start)
        self.latencies[kind].append(latency)

    def recorder(self):
        """Sessions record gauges (memo, vector) only in the traced run."""
        return Recorder() if self.traced else None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def sized(self, base: int, minimum: int) -> int:
        return max(minimum, round(base * self.scale))

    def peak_rss_mb(self) -> float:
        total = vm_hwm_mb(os.getpid())
        for child in multiprocessing.active_children():
            total += vm_hwm_mb(child.pid)
        return total

    def op_wall_s(self) -> float:
        """Summed wall time of the timed ops (failed ops excluded)."""
        return sum(value for values in self.latencies.values()
                   for value in values if value != FAILED)

    def check(self) -> None:
        pass

    def layer_stats(self) -> Dict[str, float]:
        """Client-timed per-layer numbers (serve_mixed only)."""
        return {}

    def attach_server(self, spans) -> None:
        """Merge another process's spans into ``spans`` (serve_mixed only)."""

    def teardown(self) -> None:
        pass


# -- cold_analyze --------------------------------------------------------------


class ColdAnalyze(Workload):
    """A developer analysing programs never seen before (paper §V-A).

    Every op is ``session.analyze(workload, seed=<fresh>)`` on a store
    that has never seen that seed: build, machine under the tracer,
    pack, DCFG/IPDOM, replay, report, store write and index hook.
    """

    name = "cold_analyze"
    #: Data-dependent and divergent (rodinia_bfs, x264), lock-heavy
    #: (memcached), uniform (nbody).  Thread counts space the groups'
    #: costs apart (about 21, 38, 114, 151 and 200 ms at the reference
    #: host speed); the p50 and p90 groups (nbody) cost nearly the same
    #: on every seed, so each percentile sits inside one tight group.
    GROUPS = (("rodinia_bfs", 64), ("memcached", 64), ("nbody", 32),
              ("x264", 64), ("nbody", 64))
    PER_GROUP = 40
    SETUP_REPS = 9
    #: Untimed first analysis (outside the list) so lazy set-up -- the
    #: index db, the first store write -- finishes before timing.  Big
    #: enough that set-up time is CPU work, not the jitter of a few
    #: small file writes.
    PRIMER = ("btree", 256, 1)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        per_group = self.sized(self.PER_GROUP, 20)
        self.ops = five_groups(self.rng, self.GROUPS, per_group, set())

    def setup(self) -> None:
        self.session = AnalysisSession(
            cache_dir=os.path.join(self.work_dir, "store"), jobs=1,
            recorder=self.recorder())
        name, threads, seed = self.PRIMER
        self.session.analyze(name, n_threads=threads, seed=seed)

    def run_ops(self, spans) -> None:
        session = self.session
        self.results = {}
        for op, (name, threads, seed) in enumerate(self.ops):
            self.host.tick()
            spans.op = op
            self.op_labels[op] = name
            self.attempted += 1
            began = time.time()
            start = time.perf_counter()
            try:
                report = session.analyze(name, n_threads=threads, seed=seed)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                self.record("ops", began, FAILED)
                self.fail(f"{name} seed {seed}: {exc!r}")
                continue
            self.record("ops", began, time.perf_counter() - start)
            self.results[op] = numbers(report)
            self.rows.append(self.results[op])
        spans.op = None

    def check(self) -> None:
        # A store-less library session must give the same numbers.
        plain = AnalysisSession(jobs=1)
        for op in sorted(self.rng.sample(range(len(self.ops)), 2)):
            name, threads, seed = self.ops[op]
            expect = numbers(plain.analyze(name, n_threads=threads,
                                           seed=seed))
            if self.results.get(op) != expect:
                self.fail(f"{name} seed {seed}: store path "
                          f"{self.results.get(op)} != store-less {expect}")

    def teardown(self) -> None:
        self.session.close()


# -- design_sweep --------------------------------------------------------------


DESIGN_POINTS = [
    (warp, batching, locks)
    for warp in (8, 16, 32, 64)
    for batching in ("linear", "cpu_affine", "strided")
    for locks in ("off", "unlock", "exit")
]


def design_config(point) -> AnalyzerConfig:
    warp, batching, locks = point
    return AnalyzerConfig(
        warp_size=warp, batching=batching, emulate_locks=locks != "off",
        lock_reconvergence="unlock" if locks == "off" else locks)


class DesignSweep(Workload):
    """An architect sweeping SIMT design points over traced programs.

    Set-up traces the corpus once and builds its DCFGs in an
    ``AnalysisSession(jobs=2)`` without a disk store; each op replays
    one (program x design point) cell through the session's replay
    stage on the persistent pool.  No cell repeats within a run.
    """

    name = "design_sweep"
    #: Divergent: pigz, hdsearch_mid, x264, particlefilter; lock-heavy:
    #: memcached, dsb_text, fluidanimate; uniform: nbody.
    #: Thread counts pair pigz (the costliest to trace) with nbody, so
    #: both trace_many batches keep the two pool workers busy.
    CATALOG = (("pigz", 64), ("nbody", 64), ("hdsearch_mid", 256),
               ("x264", 256), ("particlefilter", 256), ("memcached", 256),
               ("dsb_text", 256), ("fluidanimate", 256))
    #: The catalog corpus is fixed; the seed builds the dial programs
    #: and orders the cells.
    CORPUS_SEED = 7
    DIAL_THREADS = 512
    #: Pool warm-up config, outside the timed grid.
    WARM = AnalyzerConfig(warp_size=128)
    #: Warp sizes at which each dial program is checked against the
    #: lock-step oracle.
    ORACLE_WARPS = (8, 32)
    JOBS = 2
    CHECK_CELLS = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # The pool workers run on every CPU; each op waits for the slower.
        self.host = HostSpeed(cpus=os.sched_getaffinity(0))
        n_programs = len(self.CATALOG) + len(dial.PCTS) * len(dial.DEPTHS)
        # Program by program, as an architect sweeps: each program's
        # DCFGs are pushed to the pool once, whatever the seed.  The
        # seed orders the programs and each program's design points.
        programs = list(range(n_programs))
        self.rng.shuffle(programs)
        cells = []
        for program in programs:
            points = list(range(len(DESIGN_POINTS)))
            self.rng.shuffle(points)
            cells.extend((program, point) for point in points)
        self.cells = cells[:self.sized(len(cells), 100)]

    def setup(self) -> None:
        session = AnalysisSession(jobs=self.JOBS, recorder=self.recorder())
        self.session = session
        self.programs = []  # (label, traces, dcfgs)
        by_threads: Dict[int, List[str]] = {}
        for name, threads in self.CATALOG:
            by_threads.setdefault(threads, []).append(name)
        traced = {}
        for threads, names in by_threads.items():
            for name, traces in session.trace_many(
                    names, n_threads=threads, seed=self.CORPUS_SEED).items():
                traced[name] = (threads, traces)
        for name, _threads in self.CATALOG:
            threads, traces = traced[name]
            fields = session.trace_fields(name, threads, self.CORPUS_SEED)
            self.programs.append(
                (name, traces, session.prepare(traces, fields=fields)))
        self.dials = dial.build_all(self.DIAL_THREADS, self.seed)
        for spec in self.dials:
            traces = session.trace_raw(
                spec.program, spec.spawns(), ["worker"], setup=spec.setup,
                workload=f"dial-{spec.label}")
            self.programs.append((f"dial.{spec.label}", traces,
                                  session.prepare(traces)))
        for _label, traces, dcfgs in self.programs:
            session.replay(traces, config=self.WARM, dcfgs=dcfgs)

    def run_ops(self, spans) -> None:
        session = self.session
        self.results = {}
        for op, (program, point) in enumerate(self.cells):
            label, traces, dcfgs = self.programs[program]
            self.host.tick()
            spans.op = op
            self.op_labels[op] = label
            self.attempted += 1
            began = time.time()
            start = time.perf_counter()
            try:
                report = session.replay(traces, config=design_config(
                    DESIGN_POINTS[point]), dcfgs=dcfgs)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                self.record("ops", began, FAILED)
                self.fail(f"{label} {DESIGN_POINTS[point]}: {exc!r}")
                continue
            self.record("ops", began, time.perf_counter() - start)
            self.results[(program, point)] = numbers(report)
            self.rows.append(self.results[(program, point)])
        spans.op = None

    def check(self) -> None:
        session = self.session
        for program, point in self.rng.sample(self.cells, self.CHECK_CELLS):
            label, traces, dcfgs = self.programs[program]
            serial = numbers(session.replay(
                traces, config=design_config(DESIGN_POINTS[point]),
                dcfgs=dcfgs, jobs=1))
            if self.results.get((program, point)) != serial:
                self.fail(f"{label} {DESIGN_POINTS[point]}: jobs=2 "
                          f"{self.results.get((program, point))} != "
                          f"jobs=1 {serial}")
        # Dial programs against the lock-step oracle (linear batching,
        # no lock emulation: the oracle's own warp formation).
        offset = len(self.CATALOG)
        for index, spec in enumerate(self.dials):
            for point, (warp, batching, locks) in enumerate(DESIGN_POINTS):
                if (warp not in self.ORACLE_WARPS or batching != "linear"
                        or locks != "off"):
                    continue
                got = self.results.get((offset + index, point))
                if got is None:
                    continue
                gpu = LockstepGPU(spec.program, warp_size=warp)
                gpu.memory.write_words(spec.in_addr, spec.words)
                oracle = gpu.run_kernel(
                    "worker", [[t] for t in range(spec.n_threads)])
                expect = [repr(oracle.simt_efficiency),
                          oracle.metrics.issues]
                if got[2:4] != expect:
                    self.fail(f"dial {spec.label} warp {warp}: replay "
                              f"{got[2:4]} != oracle {expect}")
        leaked = pool_mod.leaked_segments()
        if leaked:
            self.fail(f"leaked shared-memory segments: {leaked}")
        faults = self.session.fault_stats
        self.fault_counts = {
            "pool.worker_failures": (
                faults["worker_failures"]
                + pool_mod.stats_snapshot().get("worker_failures", 0)),
            "pool.fallbacks": faults["pool_fallbacks"],
        }

    def teardown(self) -> None:
        self.session.close()
        pool_mod.shutdown()


# -- speedup_projection --------------------------------------------------------


GPU_POINTS = (("rtx3070", rtx3070, 32), ("rtx3070", rtx3070, 16),
              ("small_simt_cpu", small_simt_cpu, 8),
              ("small_simt_cpu", small_simt_cpu, 4))


class SpeedupProjection(Workload):
    """The paper's Fig. 6 leg: warp traces -> GPU and CPU timing models.

    Set-up traces a small corpus; each op is ``project_speedup`` for
    one (trace set x GPU config x warp size) cell: warp-trace
    generation, the GPU timing model and the CPU model.
    """

    name = "speedup_projection"
    #: Five groups (one program each); every group holds the same
    #: number of trace sets, each traced at a fresh seed.
    GROUPS = (("vectoradd", 32), ("rodinia_bfs", 32), ("memcached", 32),
              ("md5", 16), ("nbody", 16))
    SEEDS_PER_GROUP = 15
    SETUP_REPS = 5
    CHECK_CELLS = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        per_group = self.sized(self.SEEDS_PER_GROUP, 5)
        self.corpus = five_groups(self.rng, self.GROUPS, per_group, set())
        cells = [(index, point) for index in range(len(self.corpus))
                 for point in range(len(GPU_POINTS))]
        self.rng.shuffle(cells)
        self.cells = cells

    def setup(self) -> None:
        session = AnalysisSession(jobs=1, recorder=self.recorder())
        self.session = session
        self.traced_corpus = []
        for name, threads, seed in self.corpus:
            traces = session.trace(name, n_threads=threads, seed=seed)
            program = session.build(name, threads, seed).program
            self.traced_corpus.append((name, traces, program))

    def run_ops(self, spans) -> None:
        self.results = {}
        for op, (index, point) in enumerate(self.cells):
            name, traces, program = self.traced_corpus[index]
            config_name, config, warp = GPU_POINTS[point]
            self.host.tick()
            spans.op = op
            self.op_labels[op] = name
            self.attempted += 1
            began = time.time()
            start = time.perf_counter()
            try:
                result = project_speedup(traces, program, config(),
                                         warp_size=warp)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                self.record("ops", began, FAILED)
                self.fail(f"{name} {config_name}/{warp}: {exc!r}")
                continue
            self.record("ops", began, time.perf_counter() - start)
            self.results[(index, point)] = [
                name, config_name, warp, repr(result.simt_efficiency),
                result.gpu.cycles, result.gpu.instructions,
                result.gpu.thread_instructions, result.cpu.cycles]
            self.rows.append(self.results[(index, point)])
        spans.op = None

    def check(self) -> None:
        # Warp-trace generation replays the traces; its efficiency and
        # warp instruction count must equal a plain replay's.
        for index, point in self.rng.sample(self.cells, self.CHECK_CELLS):
            name, traces, _program = self.traced_corpus[index]
            warp = GPU_POINTS[point][2]
            got = self.results.get((index, point))
            report = self.session.replay(
                traces, config=AnalyzerConfig(warp_size=warp))
            expect = [repr(report.simt_efficiency), report.metrics.issues]
            if got is None or [got[3], got[5]] != expect:
                self.fail(f"{name} warp {warp}: projection "
                          f"{got and [got[3], got[5]]} != replay {expect}")

    def teardown(self) -> None:
        self.session.close()


# -- serve_mixed ---------------------------------------------------------------


POLL_S = 0.01
JOB_TIMEOUT_S = 120.0


class _Client:
    """One keep-alive HTTP/JSON connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60.0)

    def request(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class ServeMixed(Workload):
    """Callers of the analysis service: reads beside writes.

    The server runs in its own process with production defaults
    (jobs=1, shards=0).  Two closed-loop client connections each work
    through their own seed-generated list mixing cold submits,
    back-to-back duplicates that must coalesce, store-warm submits of
    pre-written reports, and registry resubmits.  One caller is
    write-heavy (the five equal cold groups), the other read-heavy
    (mostly store-warm reads), so the cold latencies rarely queue behind
    the other caller's analysis while every warm read can.  Latency is
    the job's server-side ``finished`` stamp minus the client's send
    time, both on the host clock; polling only decides when the next
    request goes.
    """

    name = "serve_mixed"
    latency_lists = ("ops", "warm")
    #: The harness's main thread samples host speed while the clients
    #: run, so the samples overlap the timed phase instead of pausing it.
    INLINE_SAMPLING = False
    GROUPS = ColdAnalyze.GROUPS
    #: Per caller: cold submits per group (over ``GROUPS``, or only the
    #: cheapest group when ``groups`` is 1), duplicates per group,
    #: store-warm submits, registry resubmits.
    CALLERS = (
        dict(groups=5, cold_per_group=30, dups_per_group=4, warm=10,
             registry=10),
        dict(groups=1, cold_per_group=5, dups_per_group=1, warm=90,
             registry=10),
    )
    #: Store-warm reports are pre-written over these traced programs.
    WARM_PROGRAMS = (("rodinia_bfs", 32), ("btree", 32), ("vectoradd", 32))
    WARM_POINTS = [
        (warp, batching, locks) for warp in (4, 8, 16, 32, 64)
        for batching in ("linear", "cpu_affine", "strided")
        for locks in ("off", "unlock", "exit")]
    CHECK_SPECS = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng
        callers = [{key: (value if key == "groups"
                          else self.sized(value, 1))
                    for key, value in caller.items()}
                   for caller in self.CALLERS]
        warm_specs = [
            dict(workload=name, n_threads=threads, seed=self.seed + 1,
                 **self._config_fields(point))
            for name, threads in self.WARM_PROGRAMS
            for point in self.WARM_POINTS]
        rng.shuffle(warm_specs)
        self.warm_specs = warm_specs[:sum(c["warm"] for c in callers)]
        warm_iter = iter(self.warm_specs)
        seeds: set = set()
        self.plans = []
        for caller in callers:
            groups = self.GROUPS[:caller["groups"]]
            cold = five_groups(rng, groups, caller["cold_per_group"], seeds)
            dups = set()
            for name, _threads in groups:
                dups.update(rng.sample(
                    [i for i, op in enumerate(cold) if op[0] == name],
                    caller["dups_per_group"]))
            units = [("cold", dict(workload=name, n_threads=threads,
                                   seed=seed), i in dups)
                     for i, (name, threads, seed) in enumerate(cold)]
            units += [("warm", next(warm_iter), False)
                      for _ in range(caller["warm"])]
            rng.shuffle(units)
            # A registry resubmit repeats a spec this client has already
            # completed, so its slots start after the first op.
            slots = sorted(rng.choices(range(1, len(units) + 1),
                                       k=caller["registry"]))
            plan, done = [], []
            for position, unit in enumerate(units + [None]):
                while slots and slots[0] == position:
                    slots.pop(0)
                    plan.append(("registry", rng.choice(done), False))
                if unit is None:
                    break
                plan.append(unit)
                done.append(unit[1])
            self.plans.append(plan)
        self.clients_n = len(self.plans)
        self.fresh_specs = sum(1 for plan in self.plans
                               for unit in plan if unit[0] == "cold")

    @staticmethod
    def _config_fields(point) -> dict:
        warp, batching, locks = point
        return dict(warp_size=warp, batching=batching,
                    emulate_locks=locks != "off",
                    lock_reconvergence="unlock" if locks == "off" else locks)

    def setup(self) -> None:
        store = os.path.join(self.work_dir, "store")
        session = AnalysisSession(cache_dir=store, jobs=1)
        for spec in self.warm_specs:
            fields = dict(spec)
            name = fields.pop("workload")
            threads = fields.pop("n_threads")
            seed = fields.pop("seed")
            session.analyze(name, n_threads=threads, seed=seed,
                            config=AnalyzerConfig(**fields))
        session.close()
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        args = ["serve", "--port", "0", "--cache-dir", store]
        self.server_spans = os.path.join(self.work_dir, "server-spans.json")
        if self.traced:
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "serve_launcher.py"),
                       self.server_spans] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        # The server gets a CPU of its own and the clients the rest, so
        # clients never take the server's core; host speed is sampled
        # on the server's CPU.
        cpus = sorted(os.sched_getaffinity(0))
        server_cpu = cpus[-1]
        self.client_cpus = set(cpus[:-1]) or set(cpus)
        self.host = HostSpeed(cpus={server_cpu})
        self.server = subprocess.Popen(
            command, env=env, cwd=self.work_dir, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {server_cpu}))
        url = None
        for line in self.server.stdout:
            if line.startswith("SERVE_URL="):
                url = line.strip().split("=", 1)[1]
                break
        if url is None:
            raise RuntimeError("analysis server did not start")
        # Keep draining stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self.server.stdout.read, daemon=True)
        self._drain.start()
        host, port = url.rsplit("//", 1)[1].split(":")
        self.address = (host, int(port))
        self.clients = [_Client(*self.address)
                        for _ in range(self.clients_n)]
        status, _doc = self.clients[0].request("GET", "/v1/health")
        if status != 200:
            raise RuntimeError(f"health probe answered {status}")

    # -- the closed loop -------------------------------------------------

    def _await(self, client: _Client, job_id: str) -> dict:
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            status, doc = client.request("GET", f"/v1/jobs/{job_id}")
            if status != 200:
                raise RuntimeError(f"poll answered {status}")
            if doc["status"] in ("done", "failed"):
                return doc
            if time.monotonic() > deadline:
                raise RuntimeError("job did not finish in time")
            time.sleep(POLL_S)

    def _report(self, client: _Client, job_id: str) -> dict:
        status, doc = client.request("GET", f"/v1/jobs/{job_id}/report")
        if status != 200:
            raise RuntimeError(f"report answered {status}")
        return doc["report"]

    def _run_client(self, index: int, out: list) -> None:
        client = self.clients[index]
        for kind, spec, dup in self.plans[index]:
            entry = {"kind": kind, "spec": spec, "client": index}
            out.append(entry)
            try:
                entry["send"] = time.time()
                status, doc = client.request("POST", "/v1/analyze", spec)
                entry["received"] = time.time()
                if status >= 400:
                    raise RuntimeError(f"submit answered {status}: {doc}")
                if kind == "registry":
                    if doc["status"] != "done":
                        raise RuntimeError(
                            f"registry resubmit was {doc['status']}")
                    entry["job"] = doc
                    entry["report"] = self._report(client, doc["job_id"])
                    continue
                if dup:
                    twin = {"kind": "dup", "spec": spec, "client": index,
                            "send": time.time()}
                    out.append(twin)
                    status2, doc2 = client.request("POST", "/v1/analyze",
                                                   spec)
                    twin["received"] = time.time()
                    if status2 >= 400 or not doc2.get("coalesced"):
                        twin["error"] = (f"duplicate submit not coalesced "
                                         f"({status2}, {doc2.get('status')})")
                final = self._await(client, doc["job_id"])
                entry["job"] = final
                if final["status"] != "done":
                    raise RuntimeError(f"job failed: {final.get('error')}")
                entry["report"] = self._report(client, doc["job_id"])
                if dup:
                    twin["job"] = final
                    twin["report"] = entry["report"]
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                entry["error"] = repr(exc)

    def run_ops(self, spans) -> None:
        outs = [[] for _ in range(self.clients_n)]
        threads = [threading.Thread(target=self._run_client, args=(i, outs[i]))
                   for i in range(self.clients_n)]
        previous = os.sched_getaffinity(0)
        # Client threads inherit the main thread's CPUs at start.
        os.sched_setaffinity(0, self.client_cpus)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                self.host.tick()
                threads[0].join(timeout=0.05)
            for thread in threads:
                thread.join()
        finally:
            os.sched_setaffinity(0, previous)
        self.entries = [entry for out in outs for entry in out]
        for op, entry in enumerate(self.entries):
            entry["op"] = op
            self.attempted += 1
            self.op_labels[op] = entry["kind"]
            kind = entry["kind"]
            if "error" in entry:
                self.fail(f"{kind} {entry['spec']}: {entry['error']}")
                if kind != "registry":
                    self.record("warm" if kind == "warm" else "ops",
                                entry["send"], FAILED)
                continue
            self.rows.append(doc_numbers(entry["report"]))
            if kind == "registry":
                continue
            latency = entry["job"]["finished"] - entry["send"]
            self.record("warm" if kind == "warm" else "ops", entry["send"],
                        latency)

    def layer_stats(self) -> Dict[str, float]:
        """Client- and stamp-timed serve numbers (medians, in ms)."""
        def med(values):
            return 1000.0 * percentile(values, 50) if values else 0.0

        ok = [e for e in self.entries if "error" not in e]
        own = [e for e in ok if e["kind"] in ("cold", "warm")]
        cold = [e["job"] for e in ok if e["kind"] == "cold"]
        warm = [e["job"] for e in ok if e["kind"] == "warm"]
        return {
            "serve.submit_ms": med([e["received"] - e["send"] for e in own]),
            "serve.queue_wait_ms": med([j["started"] - j["created"]
                                        for j in cold]),
            "serve.run_ms": med([j["finished"] - j["started"] for j in cold]),
            "serve.warm_run_ms": med([j["finished"] - j["started"]
                                      for j in warm]),
            "serve.registry_hit_ms": med([e["received"] - e["send"]
                                          for e in ok
                                          if e["kind"] == "registry"]),
        }

    def op_wall_s(self) -> float:
        return super().op_wall_s() + sum(
            e["received"] - e["send"] for e in self.entries
            if e["kind"] == "registry" and "error" not in e)

    def attach_server(self, spans) -> None:
        """Split each op's latency into spans and hang the server's under them.

        ``serve.submit`` (send -> created: HTTP and fingerprinting),
        ``serve.queue_wait`` (created -> started) and ``serve.run``
        (started -> finished) partition a job's latency.  The server's
        top-level spans nest under the segment that contains them: the
        fingerprint thread's under a submit, the runner thread's under
        a run.
        """
        segments = {"fp": [], "run": []}
        for entry in self.entries:
            if "error" in entry:
                continue
            op, send = entry["op"], entry["send"]
            if entry["kind"] == "registry":
                spans.add("serve.registry_hit", send, entry["received"], op)
                continue
            job = entry["job"]
            created, started, finished = (job["created"], job["started"],
                                          job["finished"])
            if entry["kind"] == "dup":
                # The twin attaches to a job that already exists.
                wait_end = max(send, started)
                spans.add("serve.queue_wait", send, wait_end, op)
                spans.add("serve.coalesced_run", wait_end, finished, op)
                continue
            run = "serve.warm_run" if entry["kind"] == "warm" else "serve.run"
            segments["fp"].append(
                (spans.add("serve.submit", send, created, op), send, created,
                 op))
            spans.add("serve.queue_wait", created, started, op)
            segments["run"].append(
                (spans.add(run, started, finished, op), started, finished,
                 op))
        if not os.path.exists(self.server_spans):
            self.server_counts = {}
            return
        loaded, self.server_counts = spans.load(self.server_spans)
        by_id = {record[0]: record for record in loaded}
        for record in loaded:
            if record[4] is not None or record[3] is None:
                continue
            kind = "run" if record[6].startswith("tf-serve-run") else "fp"
            for seg_id, low, high, op in segments[kind]:
                if low <= record[2] and record[3] <= high:
                    record[4], record[5] = seg_id, op
                    break
        for record in loaded:
            root = record
            while root[4] in by_id:
                root = by_id[root[4]]
            record[5] = root[5]

    def check(self) -> None:
        client = self.clients[0]
        status, health = client.request("GET", "/v1/health")
        self.health = health if status == 200 else {}
        executions = self.health.get("executions")
        if executions != self.fresh_specs:
            self.fail(f"/v1/health executions {executions} != "
                      f"{self.fresh_specs} distinct fresh specs")
        plain = AnalysisSession(jobs=1)
        cold = [e for e in self.entries
                if e["kind"] == "cold" and "error" not in e]
        for entry in self.rng.sample(cold, min(self.CHECK_SPECS, len(cold))):
            spec = entry["spec"]
            expect = json.loads(json.dumps(summarize_report(plain.analyze(
                spec["workload"], n_threads=spec["n_threads"],
                seed=spec["seed"]))))
            if entry["report"] != expect:
                self.fail(f"serve report for {spec} differs from the "
                          "library analysis")

    def peak_rss_mb(self) -> float:
        return super().peak_rss_mb() + vm_hwm_mb(self.server.pid)

    def teardown(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        server = getattr(self, "server", None)
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=15)
        self._drain.join(timeout=5)
        server.stdout.close()


WORKLOADS = {cls.name: cls for cls in
             (ColdAnalyze, DesignSweep, ServeMixed, SpeedupProjection)}
