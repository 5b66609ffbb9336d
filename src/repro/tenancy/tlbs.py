"""Tenant accounting for the shared partition modes' TLBs.

The exclusive mode needs no accounting — disjoint SM slices (L1) and
the tenant-sliced index policy (L2) isolate structurally, and reusing
the stock TLBs is what keeps the one-tenant configuration bit-identical
to the single-tenant machine.

The shared modes do share storage, so their TLBs (the stock per-page
format with ASID-tagged keys in ``shared-tlb``, the sub-entry format in
``sub-entry``) are built with :class:`TenantAccounting` as the eviction
hook, which adds the interference accounting the isolation metrics need:

* per-ASID hit/access tallies (cross-pollution: how much of a tenant's
  hit rate survives co-residency), and
* ``cross_tenant_evictions`` — insertions by one tenant that displaced
  another tenant's entry (or, sub-entry format, sub-entries).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..translation.tlb import EvictionHook, SetAssociativeTLB, SubEntrySharedTLB


class TenantAccounting(EvictionHook):
    """Per-ASID probe tallies + cross-tenant eviction counter.

    ASIDs are the VPN bits at and above ``tag_shift``.  Evictions are
    still dropped.
    """

    def __init__(self, num_tenants: int, tag_shift: int) -> None:
        self.tag_shift = tag_shift
        self.tenant_hits: List[int] = [0] * num_tenants
        self.tenant_accesses: List[int] = [0] * num_tenants

    def bind(self, tlb: SetAssociativeTLB) -> None:
        self._cross_evictions = tlb.stats.counter("cross_tenant_evictions")
        # a sub-entry victim carries every co-tenant's translation of
        # its base page; a tagged victim belongs to exactly one tenant
        self._sub_entries = isinstance(tlb, SubEntrySharedTLB)

    @property
    def cross_tenant_evictions(self) -> int:
        return self._cross_evictions.value

    def observe_probe(self, vpn: int, hit: bool) -> None:
        asid = vpn >> self.tag_shift
        self.tenant_accesses[asid] += 1
        if hit:
            self.tenant_hits[asid] += 1

    def evict(
        self,
        tlb: SetAssociativeTLB,
        item: Tuple[int, Any],
        vpn: int,
        tb_id: Optional[int],
    ) -> Optional[int]:
        asid = vpn >> self.tag_shift
        if self._sub_entries:
            self._cross_evictions.value += sum(
                1 for other in item[1] if other != asid
            )
        elif item[0] >> self.tag_shift != asid:
            self._cross_evictions.value += 1
        return None
