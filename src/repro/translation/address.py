"""Virtual/physical address arithmetic.

Addresses are plain ints (byte addresses).  A :class:`PageGeometry` captures
the page size in use (4 KB baseline, 2 MB for the huge-page study) and
provides the VPN split.  Keeping geometry explicit — rather than
hard-coding ``>> 12`` — lets the same TLB and walker code serve both page
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

PAGE_4K = 4 * KB
PAGE_2M = 2 * MB


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class PageGeometry:
    """Page-size-dependent address arithmetic."""

    page_size: int = PAGE_4K

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.page_size):
            raise ValueError(f"page size must be a power of two: {self.page_size}")

    @property
    def offset_bits(self) -> int:
        return self.page_size.bit_length() - 1

    @property
    def offset_mask(self) -> int:
        return self.page_size - 1

    def vpn(self, vaddr: int) -> int:
        """Virtual page number of a virtual byte address."""
        return vaddr >> self.offset_bits


GEOMETRY_4K = PageGeometry(PAGE_4K)
GEOMETRY_2M = PageGeometry(PAGE_2M)
