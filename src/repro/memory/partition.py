"""Memory partitions: shared-L2 slices + DRAM channels.

Table III: the unified L2 data cache is 128 KB per memory partition,
1536 KB total (12 partitions), 8-way, 128 B lines.  Physical line
addresses interleave across partitions.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.stats import StatGroup, StatRegistry
from .cache import Cache, line_shift
from .dram import DRAMChannel


class MemoryPartition:
    """One memory partition: an L2 data-cache slice in front of a DRAM
    channel."""

    def __init__(
        self,
        partition_id: int,
        l2_slice_bytes: int = 128 * 1024,
        l2_associativity: int = 8,
        line_bytes: int = 128,
        l2_latency: float = 30.0,
        dram_latency: float = 220.0,
        dram_interval: float = 4.0,
        stats: Optional[StatGroup] = None,
    ) -> None:
        self.partition_id = partition_id
        group = stats if stats is not None else StatGroup(f"partition{partition_id}")
        self.stats = group
        self.l2_latency = l2_latency
        self.l2 = Cache(
            l2_slice_bytes,
            l2_associativity,
            line_bytes,
            stats=group,
            name=f"l2_slice{partition_id}",
        )
        self.dram = DRAMChannel(
            dram_latency, dram_interval, stats=group, name=f"dram{partition_id}"
        )

    def access(self, paddr: int, now: float, is_write: bool = False) -> float:
        """Service a line request arriving at time ``now``.

        Returns the completion time: L2 hit costs the slice latency; an L2
        miss additionally goes to DRAM and fills the slice on return.
        """
        l2_done = now + self.l2_latency
        if self.l2.access(paddr, is_write):
            return l2_done
        dram_done = self.dram.access(l2_done)
        self.l2.fill(paddr, is_write)
        return dram_done


class PartitionedMemory:
    """The full set of memory partitions with address interleaving."""

    def __init__(
        self,
        num_partitions: int = 12,
        line_bytes: int = 128,
        registry: Optional[StatRegistry] = None,
        **partition_kwargs,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"need at least one partition, got {num_partitions}")
        self.line_bytes = line_bytes
        self._line_shift = line_shift(line_bytes)
        self.partitions: List[MemoryPartition] = []
        for i in range(num_partitions):
            group = registry.group(f"partition{i}") if registry is not None else None
            self.partitions.append(
                MemoryPartition(i, line_bytes=line_bytes, stats=group, **partition_kwargs)
            )

    def partition_for(self, paddr: int) -> MemoryPartition:
        """Line-interleaved partition selection."""
        line = paddr >> self._line_shift
        return self.partitions[line % len(self.partitions)]

    def access(self, paddr: int, now: float, is_write: bool = False) -> float:
        # partition_for inlined: this runs once per L1 miss
        line = paddr >> self._line_shift
        parts = self.partitions
        return parts[line % len(parts)].access(paddr, now, is_write)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def total_l2_hit_rate(self) -> float:
        hits = sum(p.l2.stats.counter("hits").value for p in self.partitions)
        misses = sum(p.l2.stats.counter("misses").value for p in self.partitions)
        total = hits + misses
        return hits / total if total else 0.0
