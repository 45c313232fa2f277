"""Speedup projection: GPU simulation time vs. multicore CPU time.

This is the paper's Fig. 6 pipeline packaged as one call: ThreadFuser
warp traces -> GPU simulator cycles, the same MIMD traces -> CPU model
cycles, speedup = CPU seconds / GPU seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from typing import TYPE_CHECKING

from ..program.ir import Program

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..cpusim import CPUConfig, CPUStats
from ..tracegen.generator import generate_kernel_trace
from ..tracer.events import TraceSet
from .config import GPUConfig
from .gpu import GPUSimulator, GPUStats


@dataclass
class SpeedupResult:
    workload: str
    cpu: "CPUStats"
    gpu: GPUStats
    cpu_seconds: float
    gpu_seconds: float
    speedup: float
    simt_efficiency: float


def project_speedup(traces: TraceSet, program: Program,
                    gpu_config: Optional[GPUConfig] = None,
                    cpu_config: Optional["CPUConfig"] = None,
                    warp_size: int = 32,
                    emulate_locks: bool = False,
                    launch_threads: Optional[int] = None) -> SpeedupResult:
    """Project the GPU speedup of a traced MIMD workload.

    ``launch_threads`` upscales the traced sample to the workload's real
    launch size (the paper's "#SIMT Threads" column): the traced warps are
    replicated on the GPU with disjoint address windows, and the CPU time
    is scaled by the same factor (its cores are already saturated by the
    sample, so CPU time scales linearly with work).  It must be ``None``
    or a positive int (``ValueError`` otherwise).
    """
    if launch_threads is not None and (
            isinstance(launch_threads, bool)
            or not isinstance(launch_threads, int) or launch_threads < 1):
        raise ValueError(f"launch_threads must be None or a positive int, "
                         f"got {launch_threads!r}")
    gpu_config = gpu_config or GPUConfig()
    kernel = generate_kernel_trace(
        traces, program, warp_size=warp_size, emulate_locks=emulate_locks
    )
    replicate = 1
    if launch_threads is not None and len(traces) > 0:
        replicate = max(1, round(launch_threads / len(traces)))
    from ..cpusim import CPUSimulator

    gpu_sim = GPUSimulator(gpu_config)
    gpu_stats = gpu_sim.run(kernel, replicate=replicate)
    cpu_sim = CPUSimulator(cpu_config)
    cpu_stats = cpu_sim.run(traces, program)
    cpu_stats.cycles *= replicate
    cpu_seconds = cpu_stats.seconds(cpu_sim.config.clock_ghz)
    gpu_seconds = gpu_stats.seconds(gpu_config.clock_ghz)
    return SpeedupResult(
        workload=traces.workload,
        cpu=cpu_stats,
        gpu=gpu_stats,
        cpu_seconds=cpu_seconds,
        gpu_seconds=gpu_seconds,
        speedup=cpu_seconds / gpu_seconds if gpu_seconds else 0.0,
        simt_efficiency=kernel.simt_efficiency(),
    )
