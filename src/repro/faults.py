"""``repro.faults``: deterministic fault injection for the pipeline.

The robustness story of the session layer (crash-safe worker pools,
checksummed artifacts, typed :mod:`repro.errors`) is only testable if
the failures themselves are reproducible.  This module provides a
seeded :class:`FaultPlan` that fires *planned* faults at named sites
threaded through the production code:

==================  ====================================================
site                where it fires
==================  ====================================================
``pool.spawn``      before a persistent pool worker is started or
                    respawned (transient ``OSError``)
``pool.worker``     inside a pool worker, once per work item
                    (hard ``os._exit`` kill or transient ``OSError``)
``pool.result``     parent-side, before waiting on a worker result
                    (:class:`~repro.errors.StageTimeoutError`)
``pool.attach``     inside a persistent worker, before it maps a
                    shared-memory column arena (transient ``OSError``;
                    the affected items fall back to the bit-identical
                    serial path)
``shm.unlink``      parent-side, before a shared-memory segment is
                    unlinked at arena close (transient ``OSError``;
                    the arena retries once, then records the segment
                    for atexit reclamation -- see :mod:`repro.pool`)
``io.transient``    inside :class:`~repro.artifacts.ArtifactStore` reads
                    and writes (transient ``OSError``; the store retries
                    with backoff)
``artifact.read``   payload bytes as read back from the store
                    (bit-flip / truncation -- caught by the sha256
                    verify-on-read path and quarantined)
``artifact.meta``   ``.meta.json`` bytes as read back from the store
``trace.load``      the raw trace stream inside
                    :func:`repro.tracer.io.load_traces`
``trace.pack``      the columnar buffers of a freshly built
                    :class:`~repro.tracer.packed.PackedTrace` -- for a
                    recorded trace, its first ``packed()`` call, never
                    record time (bit-flip / truncation -- caught by the
                    packed content signature before replay or
                    memoization can consume the buffers)
``index.db``        before every sqlite operation of the result index
                    (:mod:`repro.index`) -- transient ``OSError``,
                    like a locked database; the index retries with
                    backoff, then raises a typed
                    :class:`~repro.errors.IndexCorruptError` (writes
                    degrade to a warning), never a wrong query answer
==================  ====================================================

Faults are either *scheduled* (``at``/``count``: fire on the Nth hit of
a site) or *rate-based* (a seeded hash of ``(seed, site, token, hit)``
decides, so runs are reproducible regardless of scheduling).  The
persistent pool re-broadcasts the active plan to its workers at the
start of every batch, so worker-side faults are deterministic too.

Activate a plan explicitly::

    from repro.faults import FaultPlan, FaultSpec, injected

    plan = FaultPlan([FaultSpec(site="pool.worker", kind="kill")])
    with injected(plan):
        session.analyze(...)   # jobs=4 replay workers die; run recovers

or environment-wide with ``THREADFUSER_FAULTS=smoke``, which injects
recovery-transparent faults (pool kills, spawn failures, timeouts) at a
low seeded rate -- the CI ``fault-matrix`` job runs the whole test
suite this way so every PR exercises the recovery paths.

See ``docs/ROBUSTNESS.md`` for the failure taxonomy and policies.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple, Type

from .errors import (
    RetryExhaustedError,
    StageTimeoutError,
    TraceCorruptError,
    WorkerCrashError,
)

#: Exit code of a worker killed by an injected ``kill`` fault.
KILL_EXIT_CODE = 86

#: The named injection sites wired through the production code.
FAULT_SITES = (
    "pool.spawn",
    "pool.worker",
    "pool.result",
    "pool.attach",
    "shm.unlink",
    "io.transient",
    "artifact.read",
    "artifact.meta",
    "trace.load",
    "trace.pack",
    "index.db",
)

#: Fault kinds and what they do when they fire.
FAULT_KINDS = ("kill", "raise", "timeout", "bitflip", "truncate")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    site:
        Which injection point this spec arms (see :data:`FAULT_SITES`).
    kind:
        ``kill`` (``os._exit`` -- only meaningful inside workers),
        ``raise`` (transient ``OSError``), ``timeout``
        (:class:`StageTimeoutError`), ``bitflip`` / ``truncate``
        (mutate the bytes flowing through a data site).
    at / count:
        Fire on hits ``at .. at+count-1`` of the site (1-based,
        per-token).  Ignored when ``rate`` is set.
    rate:
        Probability per hit, decided by a seeded hash -- deterministic
        for a given (plan seed, site, token, hit index).
    match:
        Only fire when the site is checked with this token (e.g. a
        workload name); ``None`` matches every token.
    exc:
        Exception type for ``raise`` faults (default ``OSError``).
    """

    site: str
    kind: str
    at: int = 1
    count: int = 1
    rate: float = 0.0
    match: Optional[str] = None
    exc: Optional[Type[BaseException]] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(one of {FAULT_SITES})")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(one of {FAULT_KINDS})")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults over the named sites.

    The plan keeps two counter maps: ``hits`` (how often each
    ``(site, token)`` was checked) and ``injected`` (how often each
    site actually fired).  Both are per-process; forked workers carry
    copies forward from the fork point.
    """

    specs: Sequence[FaultSpec] = ()
    seed: int = 0
    hits: Dict[Tuple[str, str], int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)

    # -- matching --------------------------------------------------------

    def _roll(self, site: str, token: str, hit: int) -> float:
        raw = f"{self.seed}:{site}:{token}:{hit}".encode("utf-8")
        digest = hashlib.sha256(raw).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def _match(self, site: str, token: str) -> Optional[FaultSpec]:
        key = (site, token)
        hit = self.hits.get(key, 0) + 1
        self.hits[key] = hit
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.match is not None and spec.match != token:
                continue
            if spec.rate > 0.0:
                if self._roll(site, token, hit) < spec.rate:
                    return spec
            elif spec.at <= hit < spec.at + spec.count:
                return spec
        return None

    def _fired(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1

    # -- injection primitives --------------------------------------------

    def check(self, site: str, token: str = "") -> None:
        """Raise (or die) if a fault is planned for this hit of ``site``."""
        spec = self._match(site, token)
        if spec is None:
            return
        self._fired(site)
        if spec.kind == "kill":
            os._exit(KILL_EXIT_CODE)
        if spec.kind == "timeout":
            raise StageTimeoutError(
                f"injected timeout at {site}" + (f" [{token}]" if token
                                                 else ""),
                site=site,
            )
        exc = spec.exc or OSError
        raise exc(f"injected transient fault at {site}"
                  + (f" [{token}]" if token else ""))

    def mangle(self, site: str, data: bytes, token: str = "") -> bytes:
        """Return ``data``, corrupted if a fault is planned for this hit."""
        spec = self._match(site, token)
        if spec is None or not data:
            return data
        self._fired(site)
        if spec.kind == "truncate":
            return data[: len(data) // 2]
        digest = hashlib.sha256(
            f"{self.seed}:{site}:{token}".encode("utf-8")
        ).digest()
        pos = int.from_bytes(digest[:4], "big") % len(data)
        bit = digest[4] % 8
        return data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]


# -- the active plan -----------------------------------------------------

#: Environment switch; ``smoke`` arms recovery-transparent pool faults.
ENV_VAR = "THREADFUSER_FAULTS"
ENV_SEED_VAR = "THREADFUSER_FAULTS_SEED"

_STATE: Dict[str, object] = {"plan": None, "env_checked": False}


def smoke_plan(seed: Optional[int] = None) -> FaultPlan:
    """The ``THREADFUSER_FAULTS=smoke`` plan: low-rate pool faults.

    Smoke mode only arms recovery-transparent sites: the pool faults
    fall back to the bit-identical serial path, transient ``index.db``
    faults are absorbed by the index's retry loop (a degraded index
    write warns; the artifact store itself is untouched).  Every
    observable analysis result is unchanged, so an arbitrary test
    suite passes under smoke while still exercising the recovery
    paths.
    """
    if seed is None:
        seed = int(os.environ.get(ENV_SEED_VAR, "20240"))
    return FaultPlan(
        specs=(
            FaultSpec(site="pool.spawn", kind="raise", rate=0.05),
            FaultSpec(site="pool.worker", kind="kill", rate=0.05),
            FaultSpec(site="pool.result", kind="timeout", rate=0.05),
            FaultSpec(site="index.db", kind="raise", rate=0.02),
        ),
        seed=seed,
    )


def smoke_pool_plan(seed: Optional[int] = None) -> FaultPlan:
    """``THREADFUSER_FAULTS=smoke-pool``: smoke plus the shm substrate.

    Extends :func:`smoke_plan` with the two persistent-pool sites
    introduced with :mod:`repro.pool` -- ``pool.attach`` (a worker
    fails to map a shared-memory arena; the batch falls back to the
    bit-identical serial path) and ``shm.unlink`` (releasing a segment
    fails transiently; the arena retries and, at worst, defers the
    unlink to atexit).  Both are recovery transparent, so an arbitrary
    suite passes under this mode too.
    """
    base = smoke_plan(seed)
    return FaultPlan(
        specs=tuple(base.specs) + (
            FaultSpec(site="pool.attach", kind="raise", rate=0.05),
            FaultSpec(site="shm.unlink", kind="raise", rate=0.05),
        ),
        seed=base.seed,
    )


def plan_from_env() -> Optional[FaultPlan]:
    """The plan named by ``$THREADFUSER_FAULTS`` (``None`` when unset)."""
    mode = os.environ.get(ENV_VAR, "").strip().lower()
    if not mode or mode in ("0", "off", "none"):
        return None
    if mode == "smoke":
        return smoke_plan()
    if mode == "smoke-pool":
        return smoke_pool_plan()
    raise ValueError(f"unknown {ENV_VAR} mode {mode!r} "
                     "(expected 'smoke', 'smoke-pool' or unset)")


def active() -> Optional[FaultPlan]:
    """The currently installed plan (lazily read from the environment)."""
    if _STATE["plan"] is None and not _STATE["env_checked"]:
        _STATE["env_checked"] = True
        _STATE["plan"] = plan_from_env()
    return _STATE["plan"]  # type: ignore[return-value]


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    _STATE["env_checked"] = True
    _STATE["plan"] = plan


def reset() -> None:
    """Forget the installed plan; the environment is re-read lazily."""
    _STATE["plan"] = None
    _STATE["env_checked"] = False


@contextmanager
def injected(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope ``plan`` as the active plan for a ``with`` block."""
    previous_plan = _STATE["plan"]
    previous_checked = _STATE["env_checked"]
    install(plan)
    try:
        yield plan
    finally:
        _STATE["plan"] = previous_plan
        _STATE["env_checked"] = previous_checked


def check(site: str, token: str = "") -> None:
    """Module-level :meth:`FaultPlan.check` against the active plan."""
    plan = active()
    if plan is not None:
        plan.check(site, token)


def mangle(site: str, data: bytes, token: str = "") -> bytes:
    """Module-level :meth:`FaultPlan.mangle` against the active plan."""
    plan = active()
    if plan is None:
        return data
    return plan.mangle(site, data, token)


# -- failure classification and retry ------------------------------------

#: Exception types a retry (and the serial fallback) may paper over.
#: Everything else is a *bug* and must propagate with its original
#: traceback -- silently retrying it would mask real defects.
RETRYABLE_TYPES: Tuple[Type[BaseException], ...] = (
    BrokenExecutor,          # a pool worker died (BrokenProcessPool)
    TimeoutError,
    StageTimeoutError,
    WorkerCrashError,
    TraceCorruptError,       # transport corruption; regenerate serially
    ConnectionError,
    EOFError,                # worker pipe closed mid-result
)


def is_retryable(exc: BaseException) -> bool:
    """True when ``exc`` is transient infrastructure, not a bug.

    ``OSError`` is retryable *except* :class:`FileNotFoundError` /
    :class:`NotADirectoryError`, which are semantic (a miss or a broken
    invocation) rather than transient.
    """
    if isinstance(exc, (FileNotFoundError, NotADirectoryError)):
        return False
    return isinstance(exc, RETRYABLE_TYPES) or isinstance(exc, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule for retryable failures."""

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def delay(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based): base * 2^attempt."""
        return min(self.base_delay * (2 ** attempt), self.max_delay)


def call_with_retry(fn, *, policy: RetryPolicy, label: str,
                    on_retry=None, site: Optional[str] = None):
    """Run ``fn()`` under ``policy``; non-retryable errors propagate.

    ``on_retry(attempt, exc)`` is called before each backoff sleep.
    When every attempt fails retryably, raises
    :class:`RetryExhaustedError` chained to the last error; ``site``,
    when given, names the fault site (see :data:`FAULT_SITES`) the
    retried operation belongs to and is carried on the raised error so
    downstream consumers (CLI, serving layer) can surface *where* the
    transient failures happened.
    """
    last: Optional[BaseException] = None
    for attempt in range(max(1, policy.attempts)):
        if attempt:
            if on_retry is not None:
                on_retry(attempt, last)
            time.sleep(policy.delay(attempt - 1))
        try:
            return fn()
        except Exception as exc:
            if not is_retryable(exc):
                raise
            last = exc
    raise RetryExhaustedError(
        f"{label}: {policy.attempts} attempts failed "
        f"(last: {type(last).__name__}: {last})",
        site=site,
        hint="transient failures persisted past backoff; check disk/"
             "process health, then rerun (cached stages are preserved)",
    ) from last


__all__ = [
    "ENV_VAR",
    "ENV_SEED_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "KILL_EXIT_CODE",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "active",
    "call_with_retry",
    "check",
    "injected",
    "install",
    "is_retryable",
    "mangle",
    "plan_from_env",
    "reset",
    "smoke_plan",
    "smoke_pool_plan",
]
