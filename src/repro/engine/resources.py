"""Serializing resources for event-driven timing without cycle stepping.

A :class:`SerialResource` models a pipelined or serialized hardware port
(an SM issue port, a DRAM channel, a page-table-walker slot) as a
"next free time" token: a request arriving at time ``t`` is granted the
resource at ``max(t, next_free)`` and holds it for ``occupancy`` cycles.
This reproduces queueing delay exactly for FIFO single-server resources
while costing O(1) per request.

:class:`ResourcePool` models ``n`` identical servers (e.g. 8 page-table
walkers) by granting each request the earliest-free server.
"""

from __future__ import annotations

import heapq
from typing import List


class SerialResource:
    """Single FIFO server with fixed per-request occupancy.

    ``occupancy`` is the number of cycles between successive grants (the
    initiation interval); latency through the unit is accounted by the
    caller on top of the grant time.
    """

    __slots__ = ("occupancy", "_next_free", "name")

    def __init__(self, occupancy: float, name: str = "") -> None:
        if occupancy < 0:
            raise ValueError(f"negative occupancy {occupancy}")
        self.occupancy = occupancy
        self.name = name
        self._next_free = 0.0

    def acquire(self, now: float) -> float:
        """Reserve the resource at or after ``now``; returns the grant time."""
        grant = now if now >= self._next_free else self._next_free
        self._next_free = grant + self.occupancy
        return grant


class ResourcePool:
    """``n`` identical servers; each request occupies one server for
    ``service_time`` cycles.  Returns the completion time of the request.

    The servers' free times live in a min-heap, so each request is
    granted the earliest-free server in O(log n).
    """

    __slots__ = ("service_time", "name", "_heap")

    def __init__(self, n_servers: int, service_time: float, name: str = "") -> None:
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers}")
        if service_time < 0:
            raise ValueError(f"negative service time {service_time}")
        self.service_time = service_time
        self.name = name
        # n equal keys already satisfy the heap invariant
        self._heap: List[float] = [0.0] * n_servers

    def acquire(self, now: float) -> float:
        """Occupy the earliest-free server from ``max(now, free)``.

        Returns the time at which the request *completes* service.
        """
        heap = self._heap
        earliest = heap[0]
        done = (now if now >= earliest else earliest) + self.service_time
        heapq.heapreplace(heap, done)
        return done

    @property
    def n_servers(self) -> int:
        return len(self._heap)
