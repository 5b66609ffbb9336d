"""Address-translation substrate: TLBs, walkers, UVM (whose resident map
is the page table the walkers consult)."""

from .address import (
    GB,
    GEOMETRY_2M,
    GEOMETRY_4K,
    KB,
    MB,
    PAGE_2M,
    PAGE_4K,
    PageGeometry,
)
from .compression import CompressedTLB, ContiguityTLB
from .pagesize import (
    FragmentationReport,
    MosaicAllocator,
    fragmentation_from_addresses,
    geometry_for,
)
from .service import SharedTranslationService
from .tlb import (
    DeadEntryFilter,
    IndexPolicy,
    SetAssociativeTLB,
    VPNIndexPolicy,
)
from .uvm import AllocationPolicy, UVMManager
from .walker import WalkerPool

__all__ = [
    "AllocationPolicy",
    "CompressedTLB",
    "ContiguityTLB",
    "DeadEntryFilter",
    "FragmentationReport",
    "MosaicAllocator",
    "GB",
    "GEOMETRY_2M",
    "GEOMETRY_4K",
    "IndexPolicy",
    "KB",
    "MB",
    "PAGE_2M",
    "PAGE_4K",
    "PageGeometry",
    "SetAssociativeTLB",
    "SharedTranslationService",
    "UVMManager",
    "VPNIndexPolicy",
    "WalkerPool",
    "fragmentation_from_addresses",
    "geometry_for",
]
