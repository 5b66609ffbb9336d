"""DRAM channel model: fixed access latency plus bandwidth serialization.

Each memory partition owns one DRAM channel.  A request pays the fixed
``access_latency`` plus any queueing delay behind earlier requests on the
same channel (one request completes per ``service_interval`` cycles,
which encodes the channel's peak bandwidth at line granularity).
"""

from __future__ import annotations

from typing import Optional

from ..engine.resources import SerialResource
from ..engine.stats import StatGroup


class DRAMChannel:
    """Single DRAM channel with latency + bandwidth-token timing."""

    def __init__(
        self,
        access_latency: float = 220.0,
        service_interval: float = 4.0,
        stats: Optional[StatGroup] = None,
        name: str = "dram",
    ) -> None:
        if access_latency < 0 or service_interval < 0:
            raise ValueError("DRAM latencies must be non-negative")
        self.access_latency = access_latency
        self._port = SerialResource(service_interval, name=name)
        self.stats = stats if stats is not None else StatGroup(name)
        self._requests = self.stats.counter("requests")
        self._queue_hist = self.stats.histogram("queue_delay")

    def access(self, now: float) -> float:
        """Issue one line-sized request; returns its completion time."""
        grant = self._port.acquire(now)
        self._requests.value += 1
        if grant > now:
            self._queue_hist.add(int(grant - now))
        return grant + self.access_latency
