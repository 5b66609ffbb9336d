"""Per-SM data-memory path: L1 data cache, MSHRs, NoC, partitions.

The SM composes two paths per Fig 1: the *translation* path (L1 TLB →
shared L2 TLB → walkers, in :mod:`repro.translation`) and this *data*
path.  :class:`SMMemoryPath.access` is entered once a physical address is
known; it probes the private L1 data cache and, on a miss, crosses the
interconnect to the owning memory partition.  Outstanding misses to the
same line merge in an MSHR table so a warp-wide burst to one line pays a
single refill.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..engine.simulator import Simulator
from ..engine.stats import StatGroup
from .cache import Cache, line_shift
from .interconnect import Interconnect
from .partition import PartitionedMemory

CompletionCallback = Callable[[], None]


class SMMemoryPath:
    """One SM's view of the data-memory hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        sm_id: int,
        l1_cache: Cache,
        interconnect: Interconnect,
        partitions: PartitionedMemory,
        l1_latency: float = 1.0,
        stats: Optional[StatGroup] = None,
    ) -> None:
        self.sim = sim
        # handle-less scheduling: access() runs once per transaction and
        # never cancels its completion events
        self._post = sim.queue.post
        self.sm_id = sm_id
        self.l1 = l1_cache
        self.noc = interconnect
        self.partitions = partitions
        self.l1_latency = l1_latency
        # bound methods + line shift for the per-transaction fast path
        self._l1_access = l1_cache.access
        self._noc_traverse = interconnect.traverse
        self._partitions_access = partitions.access
        self._line_shift = line_shift(l1_cache.line_bytes)
        self.stats = stats if stats is not None else StatGroup(f"sm{sm_id}_mem")
        self._merged = self.stats.counter("mshr_merged")
        self._pending: Dict[int, List[CompletionCallback]] = {}

    def access(
        self,
        paddr: int,
        now: float,
        callback: CompletionCallback,
        is_write: bool = False,
    ) -> None:
        """Access physical address ``paddr`` at time ``now``.

        ``callback`` fires (as a scheduled event) when the data is
        available at the SM.
        """
        l1_done = now + self.l1_latency
        if self._l1_access(paddr, is_write):
            self._post(l1_done, callback)
            return
        line = paddr >> self._line_shift
        waiting = self._pending.get(line)
        if waiting is not None:
            waiting.append(callback)
            self._merged.value += 1
            return
        self._pending[line] = [callback]
        # Request crosses the NoC, is serviced by the owning partition,
        # and the reply crosses back.
        at_partition = self._noc_traverse(self.sm_id, l1_done)
        serviced = self._partitions_access(paddr, at_partition, is_write)
        back_at_sm = serviced + self.noc.traversal_latency
        self._post(back_at_sm, self._finish_fill, line, paddr, is_write)

    def _finish_fill(self, line: int, paddr: int, is_write: bool) -> None:
        self.l1.fill(paddr, is_write)
        for callback in self._pending.pop(line, ()):  # pragma: no branch
            callback()
