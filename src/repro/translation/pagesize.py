"""Page-size study helpers (4 KB baseline vs 2 MB huge pages + Mosaic).

Workload traces are byte-addressed, so running with huge pages is just a
matter of handing the GPU a 2 MB :class:`~repro.translation.address.PageGeometry`.
What this module adds is the accounting the paper's huge-page discussion
relies on: huge pages enlarge TLB reach but suffer *internal
fragmentation* (a 2 MB frame is committed even when only a few 4 KB
chunks of it are touched).

:class:`MosaicAllocator` models the middle ground from Mosaic
(arXiv 1804.11265): the application still sees base pages, but the
allocator hands out frames so that every 2 MB-aligned *virtual* region
lands inside one 2 MB-aligned *physical* region with offsets preserved.
Touched regions therefore stay promotable to huge pages (and coalesce
under the contiguity TLB) without committing a full 2 MB up front —
fragmentation is the gap between committed regions and resident base
pages, which shrinks as a region fills.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List

from .address import GEOMETRY_2M, GEOMETRY_4K, PAGE_2M, PAGE_4K, PageGeometry


@dataclass(frozen=True)
class FragmentationReport:
    """Internal-fragmentation accounting for a huge-page run."""

    touched_small_pages: int
    huge_pages_committed: int

    @property
    def touched_bytes(self) -> int:
        return self.touched_small_pages * PAGE_4K

    @property
    def committed_bytes(self) -> int:
        return self.huge_pages_committed * PAGE_2M

    @property
    def utilization(self) -> float:
        """Fraction of committed huge-page bytes actually touched."""
        if self.committed_bytes == 0:
            return 1.0
        return self.touched_bytes / self.committed_bytes


def fragmentation_from_addresses(addresses: Iterable[int]) -> FragmentationReport:
    """Measure internal fragmentation if ``addresses`` ran on 2 MB pages."""
    small = set()
    huge = set()
    for addr in addresses:
        small.add(GEOMETRY_4K.vpn(addr))
        huge.add(GEOMETRY_2M.vpn(addr))
    return FragmentationReport(
        touched_small_pages=len(small), huge_pages_committed=len(huge)
    )


class MosaicAllocator:
    """Region-grouped, offset-preserving base-page frame allocator.

    A virtual region (``vpn // pages_per_region``) is bound to exactly
    one physical region on first touch; every page of the region then
    maps to ``physical_region * pages_per_region + (vpn % offset)``, so
    virtually contiguous pages are physically contiguous *within* their
    region regardless of touch order.  Regions whose last resident page
    is released are decommitted and recycled (lowest-numbered free
    region first) to keep placement deterministic.
    """

    def __init__(self, pages_per_region: int, stats=None) -> None:
        if pages_per_region <= 0:
            raise ValueError("pages_per_region must be positive")
        self.pages_per_region = pages_per_region
        #: optional StatGroup; counters survive into ``RunResult.stats``
        #: (the live allocator does not cross the supervised-worker pipe)
        self.stats = stats
        #: virtual region -> physical region (injective by construction)
        self._regions: Dict[int, int] = {}
        #: virtual region -> number of resident pages in it
        self._region_pages: Dict[int, int] = {}
        self._next_region = 0
        self._free_regions: List[int] = []  # min-heap of recycled regions

    def allocate(self, vpn: int) -> int:
        """Frame for a newly-resident ``vpn`` (commits its region first)."""
        vregion, offset = divmod(vpn, self.pages_per_region)
        pregion = self._regions.get(vregion)
        if pregion is None:
            if self._free_regions:
                pregion = heapq.heappop(self._free_regions)
            else:
                pregion = self._next_region
                self._next_region += 1
            self._regions[vregion] = pregion
            self._region_pages[vregion] = 0
            if self.stats is not None:
                self.stats.counter("mosaic_regions_committed").inc()
        self._region_pages[vregion] += 1
        if self.stats is not None:
            self.stats.counter("mosaic_pages_allocated").inc()
        return pregion * self.pages_per_region + offset

    def release(self, vpn: int) -> None:
        """A page left residency; decommit its region when it empties."""
        vregion = vpn // self.pages_per_region
        count = self._region_pages.get(vregion)
        if count is None:
            return
        if self.stats is not None:
            self.stats.counter("mosaic_pages_released").inc()
        if count <= 1:
            del self._region_pages[vregion]
            heapq.heappush(self._free_regions, self._regions.pop(vregion))
            if self.stats is not None:
                self.stats.counter("mosaic_regions_decommitted").inc()
        else:
            self._region_pages[vregion] = count - 1


def geometry_for(page_size: int) -> PageGeometry:
    """Geometry for a page size, reusing the shared 4 KB/2 MB instances."""
    if page_size == PAGE_4K:
        return GEOMETRY_4K
    if page_size == PAGE_2M:
        return GEOMETRY_2M
    return PageGeometry(page_size)
