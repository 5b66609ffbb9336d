"""TB-id-indexed L1 TLB partitioning (paper §IV-B, Fig 8).

Instead of indexing TLB sets with VPN bits, the hardware TB id selects
the set(s); entries store the whole VPN so any set can hold any page.
With ``S`` sets and a compile-time occupancy of ``T`` concurrent TBs,
each TB owns ``S/T`` consecutive sets (one set each for 16 TBs on a
16-set TLB; four sets each for 4 TBs).  When ``T > S`` multiple TBs
share a set from the start (paper footnote 1).

Lookup cost: the sets owned by (or shared with) a TB are probed
serially with a full-VPN compare — a lookup that probes ``k`` sets costs
``k`` times the base latency, the overhead the paper explicitly charges.

The partitioned TLB is the stock :class:`SetAssociativeTLB` (in any
entry format) built with :class:`TBIDIndexPolicy` and the
:class:`SetSharingSpill` eviction hook.  Dynamic adjacent-set sharing
(§IV-B, Fig 9) composes through the policy's
:class:`~repro.core.set_sharing.SharingRegister`: an entry evicted from a
TB's full sets spills into a free slot of the adjacent TB's sets, setting
the evicting TB's sharing flag; lookups from a flagged TB also probe the
neighbour's sets.  Flags reset when a TB indexed to the affected sets
finishes.  TB finish never flushes entries — ids are recycled, so a new
TB simply inherits (and gradually replaces) the finished TB's sets,
preserving any inter-TB reuse.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..translation.tlb import EvictionHook, IndexPolicy, SetAssociativeTLB
from .set_sharing import SharingRegister


class TBIDIndexPolicy(IndexPolicy):
    """Set indexing by hardware TB id, with optional set sharing."""

    def __init__(
        self,
        num_sets: int,
        occupancy: Optional[int] = None,
        sharing: Optional[SharingRegister] = None,
        granularity: int = 1,
    ) -> None:
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        self.num_sets = num_sets
        self.sharing = sharing
        #: VPNs are grouped by ``granularity`` when spreading a TB's
        #: entries over its sets — the compressed variant groups by its
        #: range size so coalescible pages stay in one set.
        self.granularity = granularity
        self.occupancy = 0
        self._bounds: List[int] = []
        self.configure_occupancy(occupancy if occupancy is not None else num_sets)

    def configure_occupancy(self, occupancy: int) -> None:
        """Recompute the TB-id → sets mapping for a kernel's occupancy."""
        if occupancy <= 0:
            raise ValueError(f"occupancy must be positive, got {occupancy}")
        self.occupancy = occupancy
        if occupancy >= self.num_sets:
            self._bounds = []
        else:
            # TB i owns sets [bounds[i], bounds[i+1]); remainder spread so
            # every set is owned by exactly one TB.
            self._bounds = [
                (i * self.num_sets) // occupancy for i in range(occupancy + 1)
            ]
        self._rebuild_slot_cache()

    def _rebuild_slot_cache(self) -> None:
        """Precompute per-slot set tuples and per-(slot, residue) insert
        orders so the per-access path is two indexed loads, not list
        construction.  Occupancy changes are per-kernel (rare); accesses
        are per-transaction (hot)."""
        if self.occupancy >= self.num_sets:
            # More concurrent TBs than sets: TBs share sets from the
            # start, one set per TB-id residue.
            self._slot_mod = self.num_sets
            self._own_sets = tuple((s,) for s in range(self.num_sets))
        else:
            bounds = self._bounds
            self._slot_mod = self.occupancy
            self._own_sets = tuple(
                tuple(range(bounds[i], bounds[i + 1]))
                for i in range(self.occupancy)
            )
        # insert order for (slot, vpn-group residue): preferred set
        # first, then the slot's remaining sets in index order
        self._insert_orders = tuple(
            tuple(
                (own[r],) + tuple(s for s in own if s != own[r])
                for r in range(len(own))
            )
            for own in self._own_sets
        )

    def sets_for(self, tb_id: int) -> Sequence[int]:
        """The sets owned by ``tb_id`` under the current occupancy."""
        if tb_id < 0:
            raise ValueError(f"negative TB id {tb_id}")
        return self._own_sets[tb_id % self._slot_mod]

    def _require_tb(self, tb_id: Optional[int]) -> int:
        if tb_id is None:
            raise ValueError("TB-id-indexed TLB requires a tb_id on every access")
        return tb_id

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        if tb_id is None or tb_id < 0:
            self._require_tb(tb_id)
            raise ValueError(f"negative TB id {tb_id}")
        sharing = self.sharing
        own = self._own_sets[tb_id % self._slot_mod]
        # fast path: no sharing register, or this TB's flag is clear —
        # the flag mirrors partners() being non-empty in every register
        # variant, so reading it skips a call and a list build per probe
        if sharing is None or not sharing._flags[tb_id]:
            return own
        combined = list(own)
        for partner in sharing.partners(tb_id):
            combined.extend(self._own_sets[partner % self._slot_mod])
        return combined

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        """Preferred own set first (VPN-spread within the TB's sets), then
        the remaining own sets, then any shared partner sets — the latter
        only so an already-present (spilled) entry refreshes in place."""
        if tb_id is None or tb_id < 0:
            self._require_tb(tb_id)
            raise ValueError(f"negative TB id {tb_id}")
        sharing = self.sharing
        slot = tb_id % self._slot_mod
        orders = self._insert_orders[slot]
        ordered = orders[(vpn // self.granularity) % len(orders)]
        if sharing is None or not sharing._flags[tb_id]:
            return ordered
        combined = list(ordered)
        for partner in sharing.partners(tb_id):
            combined.extend(self._own_sets[partner % self._slot_mod])
        return combined


class TenantIndexPolicy(IndexPolicy):
    """Set indexing partitioned by tenant ASID (MIG-style TLB slicing).

    Multi-tenant VPNs carry the tenant's ASID at and above ``tag_shift``
    (see :mod:`repro.tenancy`).  Tenant ``t`` of ``n`` owns the
    contiguous set slice ``[t*S//n, (t+1)*S//n)``; within its slice a
    tenant indexes by base-VPN modulo the slice length, so no lookup or
    insertion ever leaves the owner's slice — the strict-isolation
    invariant the sanitizer's ``tenant.cross_tlb`` tag audits.

    Deliberately exposes no ``sets_for``: the single-tenant
    :class:`~repro.sanitizer.checkers.PartitionChecker` is keyed on
    ``sets_for`` and does not apply here.
    """

    def __init__(self, num_sets: int, num_tenants: int, tag_shift: int) -> None:
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if num_tenants <= 0:
            raise ValueError(f"num_tenants must be positive, got {num_tenants}")
        if num_tenants > num_sets:
            raise ValueError(
                f"{num_tenants} tenants need at least one set each; "
                f"TLB has only {num_sets}"
            )
        if tag_shift <= 0:
            raise ValueError(f"tag_shift must be positive, got {tag_shift}")
        self.num_sets = num_sets
        self.num_tenants = num_tenants
        self.tag_shift = tag_shift
        self._base_mask = (1 << tag_shift) - 1
        bounds = [(t * num_sets) // num_tenants for t in range(num_tenants + 1)]
        self._bounds = bounds
        self._slices = tuple(
            tuple(range(bounds[t], bounds[t + 1])) for t in range(num_tenants)
        )
        self._set_tuples = tuple((s,) for s in range(num_sets))

    def tenant_for_set(self, set_idx: int) -> int:
        """The ASID owning ``set_idx`` (the inverse of the slicing)."""
        for asid in range(self.num_tenants):
            if self._bounds[asid] <= set_idx < self._bounds[asid + 1]:
                return asid
        raise ValueError(f"set index {set_idx} out of range")

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        asid = vpn >> self.tag_shift
        sl = self._slices[asid % self.num_tenants]
        return self._set_tuples[sl[(vpn & self._base_mask) % len(sl)]]

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return self.lookup_sets(vpn, tb_id)


class SetSharingSpill(EvictionHook):
    """The partitioned L1 TLB's eviction hook (paper §IV-B, Fig 9).

    An entry evicted from a TB's full sets spills into a free slot of a
    sharing partner's sets — the partners the TB-id policy's sharing
    register names — and the register records the spill.  With no
    register (TB-id partitioning alone) every eviction is dropped and
    the spill counters stay at zero.
    """

    def bind(self, tlb: SetAssociativeTLB) -> None:
        if not isinstance(tlb.policy, TBIDIndexPolicy):
            raise ValueError("set-sharing spill needs a TB-id index policy")
        policy = tlb.policy
        sharing = self.sharing = policy.sharing
        spills = tlb.stats.counter("sharing_spills")
        attempts = tlb.stats.counter("sharing_spill_attempts")
        if sharing is None:
            return
        sets = tlb.sets
        associativity = tlb.associativity

        def spill(item: Tuple[int, Any], tb_id: Optional[int]) -> Optional[int]:
            if tb_id is None:
                return None
            attempts.value += 1
            for target_tb in sharing.spill_targets(tb_id, policy.occupancy):
                if target_tb == tb_id:
                    continue
                for set_idx in policy.sets_for(target_tb):
                    target = sets[set_idx]
                    if len(target) < associativity:
                        target[item[0]] = item[1]
                        sharing.record_spill_to(tb_id, target_tb)
                        spills.value += 1
                        return set_idx
            return None

        # holds the TLB's storage and counters, not the TLB
        self.spill = spill

    def configure_occupancy(self, occupancy: int) -> None:
        if self.sharing is not None:
            self.sharing.configure_occupancy(
                min(occupancy, self.sharing.capacity)
            )

    def on_tb_finished(self, tb_id: int) -> None:
        """Reset sharing flags; the TB's entries are *not* flushed."""
        if self.sharing is not None:
            self.sharing.on_tb_finished(tb_id)
