"""Shared page-table walkers.

Table III: 8 shared page-table walkers, 500-cycle walk latency.  Walkers
are a shared pool across all SMs; when all 8 are busy, walk requests queue
(modelled by :class:`~repro.engine.resources.ResourcePool`).  A walk that
faults (first touch under UVM) additionally pays the far-fault latency
before the translation is available.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..engine.resources import ResourcePool
from ..engine.stats import StatGroup
from ..telemetry.tracer import CAT_WALK
from .uvm import UVMManager


class WalkerPool:
    """Pool of hardware page-table walkers shared by all SMs."""

    def __init__(
        self,
        uvm: UVMManager,
        num_walkers: int = 8,
        walk_latency: float = 500.0,
        stats: Optional[StatGroup] = None,
    ) -> None:
        self.uvm = uvm
        self.walk_latency = walk_latency
        self._pool = ResourcePool(num_walkers, walk_latency, name="ptw")
        self.stats = stats if stats is not None else StatGroup("walkers")
        self._walks = self.stats.counter("walks")
        self._faults = self.stats.counter("far_faults")
        self._queue_hist = self.stats.histogram("queue_delay")
        self._tracer = None
        self._lanes: Tuple[int, ...] = ()
        self._lane_rr = 0

    def bind_tracer(self, tracer, lanes: Tuple[int, ...]) -> None:
        """Attach a tracer with one lane per walker.

        Spans are assigned to lanes round-robin: acquisition is FIFO
        across an interchangeable pool, so round-robin reproduces the
        per-walker occupancy pattern without threading walker identity
        through the resource pool.
        """
        if tracer is None or not tracer.enabled or not lanes:
            self._tracer = None
            return
        self._tracer = tracer
        self._lanes = tuple(lanes)
        self._lane_rr = 0

    def walk(self, vpn: int, now: float) -> Tuple[float, int]:
        """Issue a walk for ``vpn`` at time ``now``.

        Returns ``(completion_time, ppn)``.  The completion time includes
        walker queueing, the fixed walk latency, and any far-fault latency
        when the page was not yet resident.
        """
        done = self._pool.acquire(now)
        self._walks.value += 1
        queue_delay = done - now - self.walk_latency
        if queue_delay > 0:
            self._queue_hist.add(int(queue_delay))
        ppn, fault_latency = self.uvm.ensure_mapped(vpn, now)
        if fault_latency > 0:
            self._faults.value += 1
            done += fault_latency
        tracer = self._tracer
        if tracer is not None:
            lane = self._lanes[self._lane_rr]
            self._lane_rr = (self._lane_rr + 1) % len(self._lanes)
            tracer.complete(
                CAT_WALK, "walk", now, done - now, lane,
                {
                    "vpn": vpn,
                    "fault": fault_latency > 0,
                    "queue_delay": max(queue_delay, 0.0),
                },
            )
        return done, ppn

    @property
    def num_walkers(self) -> int:
        return self._pool.n_servers
