"""Thread-block runtime state.

A :class:`TBRuntime` is a thread block resident on an SM: it owns the
hardware TB id the paper's TLB partitioning indexes with (unique among
the TBs concurrently resident on one SM, recycled on completion), and it
tracks warp completion so the SM can detect TB finish.
"""

from __future__ import annotations

from typing import List

from .kernel import TBTrace
from .warp import WarpRuntime


class TBRuntime:
    """One resident thread block."""

    __slots__ = ("trace", "hw_tb_id", "sm_id", "warps", "live_warps", "dispatch_time")

    def __init__(
        self, trace: TBTrace, hw_tb_id: int, sm_id: int, dispatch_time: float
    ) -> None:
        self.trace = trace
        self.hw_tb_id = hw_tb_id
        self.sm_id = sm_id
        self.dispatch_time = dispatch_time
        self.warps: List[WarpRuntime] = []
        self.live_warps = 0

    def attach_warps(self, warps: List[WarpRuntime]) -> None:
        self.warps = warps
        self.live_warps = sum(1 for w in warps if not w.done)

    def warp_finished(self) -> bool:
        """One warp retired its last instruction; True when the TB is done."""
        self.live_warps -= 1
        return self.live_warps <= 0


class TBIDAllocator:
    """Hardware TB-id allocation for one SM.

    Ids are unique among resident TBs and recycled when a TB finishes —
    the property the paper relies on to avoid TLB flushes on TB finish
    (a new TB reusing the id simply inherits, and gradually replaces,
    the old TB's TLB sets).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._free = list(range(capacity - 1, -1, -1))  # pop() yields 0 first

    def allocate(self) -> int:
        if not self._free:
            raise RuntimeError("no free hardware TB ids")
        return self._free.pop()

    def release(self, tb_id: int) -> None:
        if tb_id < 0 or tb_id >= self.capacity:
            raise ValueError(f"TB id {tb_id} out of range 0..{self.capacity - 1}")
        if tb_id in self._free:
            raise ValueError(f"TB id {tb_id} is already free")
        self._free.append(tb_id)
        # Keep smallest-id-first allocation order deterministic.
        self._free.sort(reverse=True)

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)
