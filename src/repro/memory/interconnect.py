"""On-chip interconnect between SMs and memory partitions.

Modelled as a crossbar with a fixed traversal latency and a per-SM
injection port that serializes packet injection (one packet per
``injection_interval`` cycles).  This is deliberately simple — the
paper's effects live in the TLBs, not NoC contention — but injection
serialization prevents a single SM from issuing unbounded parallel
traffic for free.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.resources import SerialResource
from ..engine.stats import StatGroup


class Interconnect:
    """Crossbar latency + per-SM injection ports."""

    def __init__(
        self,
        num_sms: int,
        traversal_latency: float = 20.0,
        injection_interval: float = 1.0,
        stats: Optional[StatGroup] = None,
    ) -> None:
        if num_sms <= 0:
            raise ValueError(f"need at least one SM, got {num_sms}")
        self.traversal_latency = traversal_latency
        self._ports: List[SerialResource] = [
            SerialResource(injection_interval, name=f"noc_port{i}")
            for i in range(num_sms)
        ]
        self.stats = stats if stats is not None else StatGroup("interconnect")
        self._packets = self.stats.counter("packets")

    def traverse(self, sm_id: int, now: float) -> float:
        """Send one packet from ``sm_id``; returns its arrival time at the
        destination partition (or the reply's arrival back at the SM —
        call twice for a round trip)."""
        grant = self._ports[sm_id].acquire(now)
        self._packets.value += 1
        return grant + self.traversal_latency

    @property
    def num_sms(self) -> int:
        return len(self._ports)
