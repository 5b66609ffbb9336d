"""The paper's contribution: orchestrated TB scheduling and L1 TLB
partitioning/sharing."""

from .factory import build_l1_tlb, build_sharing_register
from .partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
from .set_sharing import CounterSharingRegister, SharingRegister
from .status_table import TLBStatusTable
from .tb_scheduler import (
    RoundRobinScheduler,
    TBScheduler,
    TLBAwareScheduler,
    make_scheduler,
)

__all__ = [
    "CounterSharingRegister",
    "RoundRobinScheduler",
    "SetSharingSpill",
    "SharingRegister",
    "TBIDIndexPolicy",
    "TBScheduler",
    "TLBAwareScheduler",
    "TLBStatusTable",
    "build_l1_tlb",
    "build_sharing_register",
    "make_scheduler",
]
