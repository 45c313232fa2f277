"""Host-speed sampling, so timings from a drifting host stay comparable.

The benchmark host's speed drifts: a fixed pure-Python loop timed in 1 s
blocks ran at 45-75 iterations/s, and its mean moved by a quarter between
minutes -- longer than any run.  CPU time drifts with it (it is not
descheduling), so no run length averages it out.  The drift does move a
fixed interpreter kernel and the workloads' ops together: over 1 s windows
the kernel's time and an analysis op's time correlated at 0.95, and
dividing one by the other cut the windows' CV from 12% to 4%.

:class:`HostSpeed` times :func:`kernel` every ``INTERVAL_S`` between ops.
Timing metrics are scaled by ``kernel mean / REFERENCE_KERNEL_S``: what
they would read on a host where the kernel takes the reference time.  A
run's throughput uses the mean over the whole timed phase; each op's
latency uses the samples within ``WINDOW_S`` of its start, because dips
last only seconds.  The collector is paused while the kernel runs: the
kernel makes no cycles, and a collection of the harness's heap landing in
a 5 ms sample would read as a slow host.  A sample is the thread's CPU
time, which slows with the host but not while the thread waits for the
interpreter lock (the serve clients' threads share it) or for a core.

Nor does it see steal time: time the hypervisor gives a CPU of this
guest to another guest.  Steal on the benchmark host came in bursts, up
to 30% of a run's CPU time; it hit ``design_sweep`` hardest, whose
ops keep both CPUs busy.  Each sample therefore also reads the CPUs'
steal counters, and every slowdown is divided by the share of an op's
time left unstolen.  For ``design_sweep`` that share is taken halfway
between one CPU's steal share and the share of time either CPU was
stolen.  Either share alone was measured to be off: with the more stolen
CPU's share, a run that lost 0.24 of its timed phase read 45.6 ops/s
where the others read 49-55; with the either-CPU share, one that lost
0.61 read 69.9 where the others' median was 56.4.  With the halfway
share, ten runs losing up to 0.20 spread 0.057 in throughput.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional

#: The kernel's time at the reference host speed: a 2-vCPU VM, unloaded.
REFERENCE_KERNEL_S = 0.005
INTERVAL_S = 0.25
WINDOW_S = 2.0
#: Steal comes in bursts of well under a second, so an op's share is
#: taken closer around it.
STEAL_WINDOW_S = 0.5
#: ``/proc/stat`` counts steal time in these ticks per second.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Each CPU's steal share is capped here: a burst can take nearly all of
#: a short window, and dividing by the little left would blow an op's
#: latency up far past what the burst cost it.
MAX_STEAL_SHARE = 0.5


def kernel() -> int:
    """Fixed interpreter work: dict, list, int and call traffic."""
    table: dict = {}
    items: list = []
    acc = 0
    for i in range(16000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
        if key == 0:
            items.append(len(table))
    return acc + sum(items)


def steal_ticks() -> Dict[int, int]:
    """Each CPU's steal time so far, in clock ticks, from ``/proc/stat``.

    Steal time is time a CPU of this guest was ready to run but the
    hypervisor ran something else on it.  Empty where it is not counted.
    """
    steal: Dict[int, int] = {}
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if not line.startswith("cpu"):
                    break
                fields = line.split()
                if fields[0] != "cpu" and len(fields) > 8:
                    steal[int(fields[0][3:])] = int(fields[8])
    except (OSError, ValueError):
        return {}
    return steal


def _timed_kernel() -> float:
    """Thread CPU seconds of one :func:`kernel` run, collector paused."""
    gc.disable()
    try:
        start = time.thread_time()
        kernel()
        return time.thread_time() - start
    finally:
        gc.enable()


class HostSpeed:
    """Samples the kernel's time on a schedule.

    The two CPUs of the benchmark host drift independently (their 1 s
    speeds correlated at -0.3), so a sample only speaks for the CPU it
    ran on.  By default that is the calling thread's own CPU -- the one
    running the ops of a single-process workload.  ``cpus`` runs each
    sample on every CPU of that set in turn and keeps the slowest: the
    CPUs another process's work runs on (the server's CPU; the pool
    workers', where each op waits for the slower worker).

    Each sample also reads the CPUs' steal time (see :func:`steal_ticks`).
    The kernel's thread CPU time cannot see it -- the hypervisor running
    another guest on our CPU stops the thread's clock too -- yet it adds
    to every op's wall time.  :meth:`steal_share` estimates the share of
    an op's time lost to it, and :meth:`slowdown` divides by the share
    left.
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus = sorted(cpus) if cpus else None
        self.samples: List[float] = []
        #: Host wall-clock time of each sample (``time.time()``), the
        #: clock op start times are recorded on.
        self.stamps: List[float] = []
        #: :func:`steal_ticks` at each sample.
        self.steals: List[Dict[int, int]] = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self) -> float:
        stamp = time.time()
        start = time.perf_counter()
        if self.cpus is None:
            took = _timed_kernel()
        else:
            previous = os.sched_getaffinity(0)
            try:
                took = 0.0
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    took = max(took, _timed_kernel())
            finally:
                os.sched_setaffinity(0, previous)
        self.spent += time.perf_counter() - start
        self.samples.append(took)
        self.stamps.append(stamp)
        self.steals.append(steal_ticks())
        return took

    def tick(self) -> None:
        """Sample if the interval has passed (call between ops)."""
        now = time.perf_counter()
        if now >= self._due:
            self.sample()
            self._due = time.perf_counter() + INTERVAL_S

    def steal_share(self, low: int = 0,
                    high: Optional[int] = None) -> float:
        """Share of an op's wall time stolen over samples ``low:high``.

        Without ``cpus`` the op runs on one CPU, any of them: the mean of
        the CPUs' steal shares.  With ``cpus``, the op also waits for
        work on each of them (:meth:`__init__`).
        """
        high = len(self.samples) if high is None else high
        if high - low < 2:
            return 0.0
        span = self.stamps[high - 1] - self.stamps[low]
        first, last = self.steals[low], self.steals[high - 1]
        cpus = [cpu for cpu in (self.cpus or first) if cpu in first]
        if span <= 0 or not cpus:
            return 0.0
        shares = [min(max((last[cpu] - first[cpu]) / CLOCK_TICKS / span,
                          0.0), MAX_STEAL_SHARE)
                  for cpu in cpus]
        one = statistics.mean(shares)
        if self.cpus is None:
            return one
        # While an op has work on every CPU of the set it stalls when any
        # of them is stolen: with independent steal, one minus the product
        # of the CPUs' unstolen shares.  Part of an op runs on one CPU
        # only (the pool's dispatch and merge), so the share is taken
        # halfway between the two; see the module docstring.
        return (one + 1.0 - math.prod(1.0 - share for share in shares)) / 2

    def slowdown(self, low: int = 0, high: Optional[int] = None,
                 steal: bool = True) -> float:
        """Mean kernel time over the reference (> 1 on a slow host),
        over samples ``low:high``, divided by the share not stolen."""
        high = len(self.samples) if high is None else high
        kernel_slowdown = (statistics.mean(self.samples[low:high])
                           / REFERENCE_KERNEL_S)
        if not steal:
            return kernel_slowdown
        return kernel_slowdown / (1.0 - self.steal_share(low, high))

    def local(self, when: float) -> float:
        """:meth:`slowdown` around ``when``: the kernel's mean over the
        samples within ``WINDOW_S``, the steal share within
        ``STEAL_WINDOW_S`` (each over the whole run where too few)."""
        low, high = self._around(when, WINDOW_S)
        if high - low < 1:
            low, high = 0, len(self.samples)
        kernel_slowdown = self.slowdown(low, high, steal=False)
        low, high = self._around(when, STEAL_WINDOW_S)
        if high - low < 2:
            low, high = 0, len(self.samples)
        return kernel_slowdown / (1.0 - self.steal_share(low, high))

    def _around(self, when: float, window: float):
        return (bisect.bisect_left(self.stamps, when - window),
                bisect.bisect_right(self.stamps, when + window))

    def scale(self, latencies: List[float], starts: List[float]) -> List[float]:
        """Each latency at the reference speed, by its op's local slowdown."""
        return [latency / self.local(start)
                for latency, start in zip(latencies, starts)]
