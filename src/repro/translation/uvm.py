"""Unified Virtual Memory manager: demand paging and frame allocation.

Under UVM the GPU touches virtual addresses directly; a page that has
never been touched is not yet backed by a GPU physical frame.  The first
page-table walk that discovers the hole triggers a *far fault*: the driver
migrates the page from host memory and installs the mapping.  We model
that as a configurable one-off latency plus a frame allocation.

The manager's resident map (VPN -> PPN) is the page table: a walk's cost
is the walker pool's fixed latency (Table III), so nothing needs the
per-level structure of a radix table.

The frame-allocation policy matters to two studies:

* the TLB-compression comparator (Fig 12) benefits when virtually
  contiguous pages get physically contiguous frames (stride-compressible);
* the huge-page study allocates 2 MB frames and suffers internal
  fragmentation, which we track.

Oversubscription (the paper's motivating scenario — Table II footprints
up to 107 GB against GPU memories of a few GB) is modelled by
``gpu_memory_bytes``: when resident pages exceed the device capacity the
manager evicts the least-recently-faulted page back to the host, so a
re-touch far-faults again.  Evictions invalidate the victim's
translation through an optional ``invalidate_hook`` (TLB shootdown).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from .address import PAGE_2M, PAGE_4K, PageGeometry
from .pagesize import MosaicAllocator


#: multiplier of the FRAGMENTED policy's deterministic frame hash
FRAME_SCRAMBLE = 0x5BD1E995


class AllocationPolicy(enum.Enum):
    """How physical frames are handed out on first touch."""

    #: Virtually adjacent pages in one allocation get adjacent frames
    #: (what a fresh, unfragmented heap gives you) — compression-friendly.
    CONTIGUOUS = "contiguous"
    #: Frames are scattered pseudo-randomly — models a fragmented heap.
    FRAGMENTED = "fragmented"
    #: Mosaic (arXiv 1804.11265): base pages grouped into 2 MB-aligned
    #: regions with offsets preserved, so contiguity survives a long-
    #: running heap and fragmentation is tracked per region.
    MOSAIC = "mosaic"


class UVMManager:
    """Demand-paging manager; its resident map is the page table.

    ``ensure_mapped`` is the single entry point used by the page-table
    walker: it returns the PPN and the extra latency (0 for an already
    resident page, ``far_fault_latency`` for a first touch).
    """

    def __init__(
        self,
        geometry: PageGeometry = PageGeometry(PAGE_4K),
        policy: AllocationPolicy = AllocationPolicy.CONTIGUOUS,
        far_fault_latency: float = 2000.0,
        gpu_memory_bytes: Optional[int] = None,
        invalidate_hook: Optional[Callable[[int], None]] = None,
        stats=None,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.far_fault_latency = far_fault_latency
        self._fault_count = 0
        self._eviction_count = 0
        #: LRU order = fault/re-touch recency (for oversubscription).
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        if gpu_memory_bytes is not None and gpu_memory_bytes < geometry.page_size:
            raise ValueError("gpu_memory_bytes smaller than one page")
        self.capacity_pages = (
            None if gpu_memory_bytes is None
            else gpu_memory_bytes // geometry.page_size
        )
        self.invalidate_hook = invalidate_hook
        if policy is AllocationPolicy.MOSAIC:
            if geometry.page_size >= PAGE_2M:
                raise ValueError(
                    "mosaic allocation needs a base page smaller than 2 MB"
                )
            self.mosaic: Optional[MosaicAllocator] = MosaicAllocator(
                PAGE_2M // geometry.page_size, stats=stats
            )
        else:
            self.mosaic = None

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _allocate_frame(self, vpn: int) -> int:
        if self.policy is AllocationPolicy.CONTIGUOUS:
            # First touch in virtual order yields contiguous frames; even
            # out-of-order touches keep a stable VPN-anchored layout so
            # virtually adjacent pages are physically adjacent.
            return vpn
        if self.mosaic is not None:
            return self.mosaic.allocate(vpn)
        # Fragmented: a multiplicative hash scatters frames while staying
        # deterministic for reproducibility.
        return ((vpn * FRAME_SCRAMBLE) ^ (vpn >> 7)) & ((1 << 40) - 1)

    # ------------------------------------------------------------------ #
    # Demand paging
    # ------------------------------------------------------------------ #
    def ensure_mapped(self, vpn: int, now: float = 0.0) -> Tuple[int, float]:
        """Return ``(ppn, extra_latency)`` for ``vpn``, faulting it in if needed."""
        ppn = self._resident.get(vpn)
        if ppn is not None:
            self._resident.move_to_end(vpn)
            return ppn, 0.0
        self._evict_if_full()
        ppn = self._allocate_frame(vpn)
        self._resident[vpn] = ppn
        self._fault_count += 1
        return ppn, self.far_fault_latency

    def _evict_if_full(self) -> None:
        """Under oversubscription, push the LRU page back to the host."""
        if self.capacity_pages is None:
            return
        while len(self._resident) >= self.capacity_pages:
            victim, _ppn = self._resident.popitem(last=False)
            self._eviction_count += 1
            if self.mosaic is not None:
                self.mosaic.release(victim)
            if self.invalidate_hook is not None:
                # TLB shootdown: stale translations must not survive the
                # page's migration back to the host.
                self.invalidate_hook(victim)

    @property
    def fault_count(self) -> int:
        return self._fault_count

    @property
    def eviction_count(self) -> int:
        return self._eviction_count
