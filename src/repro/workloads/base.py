"""Workload framework: registry, build interface, launch plans.

Each workload is a faithful small-scale reimplementation (in the mini ISA)
of one of the paper's Table I programs.  A workload builds into a
:class:`WorkloadInstance` -- the program, the CPU launch plan, the traced
worker (root) functions, the host-side input setup, and (for the 11
correlation workloads) the equivalent clean SPMD kernel for the GPU
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..machine.machine import Machine
from ..program.ir import Program

#: Suites from Table I.
SUITE_RODINIA = "Rodinia 3.1"
SUITE_PAROPOLY = "Paropoly"
SUITE_MICRO = "Micro Benchmark"
SUITE_USUITE = "uSuite"
SUITE_DEATHSTAR = "DeathStarBench"
SUITE_PARSEC = "ParSec 3.0"
SUITE_OTHER = "Others"


@dataclass
class GpuKernel:
    """The 'CUDA implementation' used by the oracle and nvbit tracing."""

    program: Program
    kernel: str
    args_per_thread: List[Sequence]
    setup: Optional[Callable] = None  # receives a Memory-like machine shim


@dataclass
class WorkloadInstance:
    """A built, runnable workload."""

    name: str
    program: Program
    #: CPU thread launch plan: (function, args, io_in).
    spawns: List[Tuple[str, Sequence, Optional[Sequence]]]
    #: Worker functions traced as logical SIMT threads.
    roots: List[str]
    setup: Optional[Callable[[Machine], None]] = None
    exclude: Tuple[str, ...] = ()
    gpu: Optional[GpuKernel] = None
    #: Machine knobs (quantum etc.) the workload needs.
    machine_kwargs: Dict = field(default_factory=dict)


@dataclass
class Workload:
    """Registry entry for one Table I workload."""

    name: str
    suite: str
    paper_simt_threads: int
    build: Callable[..., WorkloadInstance]
    has_gpu_impl: bool = False
    default_threads: int = 64
    description: str = ""

    def resolve_threads(self, n_threads: Optional[int]) -> int:
        """``n_threads``, or :attr:`default_threads` when it is ``None``.

        Any other value that is not a positive int raises ``ValueError``.
        """
        if n_threads is None:
            return self.default_threads
        if (isinstance(n_threads, bool) or not isinstance(n_threads, int)
                or n_threads < 1):
            raise ValueError(f"n_threads must be None or a positive int, "
                             f"got {n_threads!r}")
        return n_threads

    def instantiate(self, n_threads: Optional[int] = None,
                    seed: int = 7) -> WorkloadInstance:
        return self.build(self.resolve_threads(n_threads), seed)


_REGISTRY: Dict[str, Workload] = {}


def register(name: str, suite: str, paper_simt_threads: int,
             has_gpu_impl: bool = False, default_threads: int = 64,
             description: str = ""):
    """Decorator registering a workload build function."""

    def wrap(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"duplicate workload {name!r}")
        _REGISTRY[name] = Workload(
            name=name,
            suite=suite,
            paper_simt_threads=paper_simt_threads,
            build=fn,
            has_gpu_impl=has_gpu_impl,
            default_threads=default_threads,
            description=description or (fn.__doc__ or "").strip(),
        )
        return fn

    return wrap


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    return _REGISTRY[name]


def all_workloads() -> List[Workload]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def correlation_workloads() -> List[Workload]:
    """The 11 workloads with GPU implementations (paper Sec. IV)."""
    _ensure_loaded()
    return [w for w in _REGISTRY.values() if w.has_gpu_impl]


def _ensure_loaded() -> None:
    """Import all workload modules so their registrations run."""
    from . import catalog  # noqa: F401  (imports populate the registry)
