"""Shared translation service: L2 TLB + page-table walkers + miss merging.

This is the part of Fig 1's translation path behind the per-SM L1 TLBs:
a request that misses the private L1 TLB is forwarded here; it probes the
shared L2 TLB (10-cycle lookup) and, on a miss, queues for one of the
shared page-table walkers.  Outstanding walks are merged per-VPN (an
MSHR-like table) so concurrent misses to the same page from any SM pay a
single walk.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..engine.resources import SerialResource
from ..engine.simulator import Simulator
from ..engine.stats import StatGroup
from .tlb import SetAssociativeTLB
from .walker import WalkerPool

#: callback(vpn, ppn, level) where level is "l2" or "walk"; requesters
#: pass one method for every VPN instead of a closure per miss
TranslationCallback = Callable[[int, int, str], None]


class SharedTranslationService:
    """L2 TLB + walker pool with per-VPN miss merging.

    The L2 TLB has one lookup port shared by all SMs
    (``port_interval`` cycles between lookups): configurations that miss
    their private L1 TLBs more often also queue here, so an L1 hit-rate
    loss costs bandwidth as well as latency.
    """

    def __init__(
        self,
        sim: Simulator,
        l2_tlb: SetAssociativeTLB,
        walkers: WalkerPool,
        stats: Optional[StatGroup] = None,
        port_interval: float = 1.0,
    ) -> None:
        self.sim = sim
        # completion events are never cancelled: handle-less scheduling
        self._post = sim.queue.post
        self.l2_tlb = l2_tlb
        # the TLB's probe/insert, fetched once (chosen when it was built
        # and traced)
        self._probe = l2_tlb.probe
        self._insert = l2_tlb.insert
        self.walkers = walkers
        self.stats = stats if stats is not None else sim.stats.group("l2_translation")
        self._merged = self.stats.counter("merged_misses")
        self._port_queue = self.stats.histogram("port_queue_delay")
        self._port = SerialResource(port_interval, name="l2_tlb_port")
        self._pending: Dict[int, List[TranslationCallback]] = {}
        #: walks whose fill completed; with ``len(_pending)`` outstanding
        #: this mirrors the walker pool's issued counter (the sanitizer's
        #: conservation law: issued == completed + outstanding)
        self.walks_completed = 0

    def translate(self, vpn: int, now: float, callback: TranslationCallback) -> None:
        """Resolve ``vpn``; ``callback(vpn, ppn, level)`` fires at completion.

        ``now`` is the arrival time at the L2 TLB.  The callback runs as a
        scheduled simulator event (never synchronously), so callers can
        safely issue from within their own event handlers.
        """
        granted = self._port.acquire(now)
        if granted > now:
            self._port_queue.add(int(granted - now))
        lookup_done = granted + self.l2_tlb.lookup_latency
        ppn = self._probe(vpn)[0]
        if ppn is not None:
            self._post(lookup_done, callback, vpn, ppn, "l2")
            return
        waiting = self._pending.get(vpn)
        if waiting is not None:
            # A walk for this VPN is already in flight; piggyback on it.
            waiting.append(callback)
            self._merged.value += 1
            return
        self._pending[vpn] = [callback]
        walk_done, ppn = self.walkers.walk(vpn, lookup_done)
        self._post(walk_done, self._finish_walk, vpn, ppn)

    def _finish_walk(self, vpn: int, ppn: int) -> None:
        # Fill the shared L2 TLB (Fig 1 step 5), then wake every waiter.
        self.walks_completed += 1
        self._insert(vpn, ppn)
        for callback in self._pending.pop(vpn, ()):  # pragma: no branch
            callback(vpn, ppn, "walk")
