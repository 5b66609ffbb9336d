"""ASID router: per-tenant page tables behind one walker interface.

The page-table walker pool calls ``uvm.ensure_mapped(vpn, now)`` and has
no notion of tenants.  :class:`ASIDRouter` stands in for the single
UVM manager: it splits the ASID out of the tagged VPN, delegates to the
owning tenant's private :class:`~repro.translation.uvm.UVMManager`
(own page table, own residency LRU, own fault/eviction accounting), and
re-tags the returned frame with the tenant's ASID so physical addresses
stay disjoint across tenants all the way through the cache/memory
hierarchy.

The router records a bounded audit trail of (tagged VPN, tagged PPN)
resolutions; the sanitizer's ``tenant.asid_leak`` invariant replays it
to prove no lookup ever resolved into another tenant's address space.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ..translation.uvm import UVMManager
from .tenant import PPN_TAG_SHIFT

#: Audit-trail depth: big enough for a sanitizer sweep interval's worth
#: of walks, small enough to never matter for memory.
AUDIT_DEPTH = 4096


class ASIDRouter:
    """Routes walker traffic to per-tenant UVM managers by VPN tag."""

    def __init__(self, uvms: List[UVMManager], vpn_tag_shift: int) -> None:
        if not uvms:
            raise ValueError("need at least one tenant UVM")
        self.uvms = uvms
        self.vpn_tag_shift = vpn_tag_shift
        self._base_mask = (1 << vpn_tag_shift) - 1
        self.audit: Deque[Tuple[int, int]] = deque(maxlen=AUDIT_DEPTH)

    def ensure_mapped(self, vpn: int, now: float) -> Tuple[int, float]:
        """Walker entry point: resolve a tagged VPN to a tagged PPN."""
        asid = vpn >> self.vpn_tag_shift
        local_ppn, extra = self.uvms[asid].ensure_mapped(
            vpn & self._base_mask, now
        )
        ppn = (asid << PPN_TAG_SHIFT) | local_ppn
        self.audit.append((vpn, ppn))
        return ppn, extra
