"""GPU execution substrate: SMs, warps, TBs, schedulers, configuration."""

from .coalescer import coalesce
from .config import (
    BASELINE_CONFIG,
    GPUConfig,
    L1TLBMode,
    SharingPolicyKind,
    TBSchedulerKind,
    WarpSchedulerKind,
)
from .gpu import GPU, RunResult
from .kernel import Kernel, MemoryInstruction, TBTrace, WarpTrace, validate_kernel
from .sm import StreamingMultiprocessor
from .thread_block import TBIDAllocator, TBRuntime
from .warp import WarpRuntime
from .warp_scheduler import GTOIssuePort, TranslationAwareIssuePort

__all__ = [
    "BASELINE_CONFIG",
    "GPU",
    "GPUConfig",
    "GTOIssuePort",
    "Kernel",
    "L1TLBMode",
    "MemoryInstruction",
    "RunResult",
    "SharingPolicyKind",
    "StreamingMultiprocessor",
    "TBIDAllocator",
    "TBRuntime",
    "TBSchedulerKind",
    "TranslationAwareIssuePort",
    "TBTrace",
    "WarpRuntime",
    "WarpSchedulerKind",
    "WarpTrace",
    "coalesce",
    "validate_kernel",
]
