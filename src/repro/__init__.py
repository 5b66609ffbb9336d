"""Reproduction of "Orchestrated Scheduling and Partitioning for Improved
Address Translation in GPUs" (Li, Wang, Tang — DAC 2023).

A trace-driven, event-driven GPU timing model with per-SM L1 TLBs, a
shared L2 TLB, page-table walkers, and UVM demand paging, plus the
paper's contribution: TLB-thrashing-aware TB scheduling and TB-id-indexed
L1 TLB partitioning with dynamic adjacent-set sharing.

Quick start::

    from repro import BASELINE_CONFIG, build_gpu
    from repro.workloads import make_benchmark

    gpu = build_gpu(BASELINE_CONFIG)
    result = gpu.run(make_benchmark("bfs", scale="tiny"))
    print(f"L1 TLB hit rate {result.avg_l1_tlb_hit_rate:.2%} "
          f"in {result.cycles:.0f} cycles")
"""

from .arch.config import (
    BASELINE_CONFIG,
    GPUConfig,
    L1TLBMode,
    SharingPolicyKind,
    TBSchedulerKind,
    WarpSchedulerKind,
)
from .arch.gpu import GPU, RunResult
from .system import build_gpu

__version__ = "1.0.0"

__all__ = [
    "BASELINE_CONFIG",
    "GPU",
    "GPUConfig",
    "L1TLBMode",
    "RunResult",
    "SharingPolicyKind",
    "TBSchedulerKind",
    "WarpSchedulerKind",
    "build_gpu",
    "__version__",
]
