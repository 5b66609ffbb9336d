"""NPS-style memory-partition affinity for exclusive tenancy.

The AMD partitioning guide's NPS modes pin each compute partition to a
subset of memory controllers.  :class:`TenantAffinityMemory` does the
same: tenant ``t`` of ``n`` owns the contiguous partition slice
``[t*P//n, (t+1)*P//n)`` and its physical lines interleave only within
that slice, so tenants never contend for each other's L2 slices or DRAM
channels.  The owning tenant is read from the ASID tag the router put in
the physical address (bit ``PPN_TAG_SHIFT`` of the frame number).
"""

from __future__ import annotations

from ..memory.partition import MemoryPartition, PartitionedMemory


class TenantAffinityMemory(PartitionedMemory):
    """Partitioned memory with per-tenant partition-slice affinity."""

    def __init__(
        self,
        num_tenants: int,
        asid_shift: int,
        num_partitions: int = 12,
        line_bytes: int = 128,
        registry=None,
        **partition_kwargs,
    ) -> None:
        if num_tenants <= 0:
            raise ValueError(f"num_tenants must be positive, got {num_tenants}")
        if num_tenants > num_partitions:
            raise ValueError(
                f"{num_tenants} tenants need at least one partition each; "
                f"memory has only {num_partitions}"
            )
        super().__init__(
            num_partitions=num_partitions, line_bytes=line_bytes,
            registry=registry, **partition_kwargs,
        )
        self.num_tenants = num_tenants
        #: ASID position in *byte* physical addresses (PPN tag + offset).
        self.asid_shift = asid_shift
        self._bounds = [
            (t * num_partitions) // num_tenants for t in range(num_tenants + 1)
        ]

    def partition_for(self, paddr: int) -> MemoryPartition:
        asid = (paddr >> self.asid_shift) % self.num_tenants
        lo, hi = self._bounds[asid], self._bounds[asid + 1]
        line = paddr >> self._line_shift
        return self.partitions[lo + line % (hi - lo)]

    def access(self, paddr: int, now: float, is_write: bool = False) -> float:
        return self.partition_for(paddr).access(paddr, now, is_write)
