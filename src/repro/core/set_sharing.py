"""Dynamic adjacent-set sharing for the partitioned L1 TLB (paper §IV-B).

A 16-bit *sharing register* holds one flag per hardware TB id.  Flag ``i``
set means TB ``i`` additionally uses the sets of its adjacent TB
(``i+1 mod occupancy``, Fig 9): lookups from TB ``i`` probe the
neighbour's sets too, and an entry evicted from TB ``i``'s full set may
spill into a free slot of the neighbour's sets (which is the event that
sets the flag).  The flag resets when a TB indexed to the affected sets
finishes and relinquishes its resources.

Two ablation variants from the paper's discussion are also provided:

* :class:`CounterSharingRegister` — a saturating counter per TB with a
  threshold, instead of the 1-bit flag ("One may choose to implement a
  counter ... We leave the counter and threshold exploration to future
  work").
* :class:`AllToAllSharingRegister` — any-to-any sharing with per-TB
  partner tracking ("In all-to-all sharing, we will have to track the
  sharing TB_ids, which introduces additional bookkeeping").
"""

from __future__ import annotations

from typing import List, Set


class SharingRegister:
    """The paper's 1-bit-per-TB sharing register."""

    #: partners are always the adjacent TB (the sanitizer's invariant)
    adjacent_only = True

    def __init__(self, capacity: int = 16) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.occupancy = capacity
        self._flags: List[bool] = [False] * capacity

    def configure_occupancy(self, occupancy: int) -> None:
        """Adjacency wraps within the concurrently resident TB ids."""
        if occupancy <= 0 or occupancy > self.capacity:
            raise ValueError(f"occupancy {occupancy} outside 1..{self.capacity}")
        self.occupancy = occupancy
        self.reset_all()

    def neighbor(self, tb_id: int) -> int:
        """The adjacent TB whose sets ``tb_id`` may share."""
        return (tb_id + 1) % self.occupancy

    # -- spill/lookup protocol used by the partitioned TLB -------------- #
    def spill_targets(self, tb_id: int, occupancy: int) -> List[int]:
        """TBs whose sets an eviction from ``tb_id`` may spill into, in
        order; ``occupancy`` is the TLB's current TB-id mapping."""
        return [self.neighbor(tb_id)]

    def record_spill_to(self, tb_id: int, target_tb: int) -> None:
        """An eviction from ``tb_id`` spilled into ``target_tb``'s sets
        (always the neighbour here)."""
        self.record_spill(tb_id)

    def record_spill(self, tb_id: int) -> None:
        """An eviction from ``tb_id`` spilled into the neighbour's sets."""
        self._flags[tb_id] = True

    def partners(self, tb_id: int) -> List[int]:
        """TB ids whose sets a lookup from ``tb_id`` must also probe."""
        if self._flags[tb_id]:
            return [self.neighbor(tb_id)]
        return []

    def is_sharing(self, tb_id: int) -> bool:
        return self._flags[tb_id]

    # -- lifecycle ------------------------------------------------------ #
    def on_tb_finished(self, tb_id: int) -> None:
        """Reset flags indexing the finished TB's sets: the TB's own flag
        and the flag of the predecessor spilling into this TB's sets."""
        if tb_id < self.capacity:
            self._flags[tb_id] = False
        prev = (tb_id - 1) % self.occupancy
        if prev < self.capacity:
            self._flags[prev] = False

    def reset_all(self) -> None:
        for i in range(self.capacity):
            self._flags[i] = False

    @property
    def bits(self) -> int:
        """Hardware cost: one bit per TB slot (16 bits in the paper)."""
        return self.capacity


class CounterSharingRegister(SharingRegister):
    """Ablation: sharing activates after ``threshold`` spill attempts."""

    def __init__(self, capacity: int = 16, threshold: int = 4) -> None:
        super().__init__(capacity)
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self._counts: List[int] = [0] * capacity

    def record_spill(self, tb_id: int) -> None:
        if self._counts[tb_id] < self.threshold:
            self._counts[tb_id] += 1
        if self._counts[tb_id] >= self.threshold:
            self._flags[tb_id] = True

    def on_tb_finished(self, tb_id: int) -> None:
        super().on_tb_finished(tb_id)
        if tb_id < self.capacity:
            self._counts[tb_id] = 0
        prev = (tb_id - 1) % self.occupancy
        if prev < self.capacity:
            self._counts[prev] = 0

    def reset_all(self) -> None:
        super().reset_all()
        for i in range(self.capacity):
            self._counts[i] = 0


class AllToAllSharingRegister(SharingRegister):
    """Ablation: a TB may share any other TB's sets (tracked partners)."""

    adjacent_only = False

    def __init__(self, capacity: int = 16) -> None:
        super().__init__(capacity)
        self._partners: List[Set[int]] = [set() for _ in range(capacity)]

    def spill_targets(self, tb_id: int, occupancy: int) -> List[int]:
        return [
            t for t in range(min(occupancy, self.capacity)) if t != tb_id
        ]

    def record_spill_to(self, tb_id: int, target_tb: int) -> None:
        self._partners[tb_id].add(target_tb)
        self._flags[tb_id] = True

    def record_spill(self, tb_id: int) -> None:
        self.record_spill_to(tb_id, self.neighbor(tb_id))

    def partners(self, tb_id: int) -> List[int]:
        return sorted(self._partners[tb_id])

    def on_tb_finished(self, tb_id: int) -> None:
        # Drop the finished TB's own partner list and remove it from
        # everyone else's.
        if tb_id < self.capacity:
            self._partners[tb_id].clear()
            self._flags[tb_id] = False
        for i, partners in enumerate(self._partners):
            partners.discard(tb_id)
            if not partners:
                self._flags[i] = False

    def reset_all(self) -> None:
        super().reset_all()
        for partners in self._partners:
            partners.clear()

    @property
    def bits(self) -> int:
        """All-to-all needs a full TB-id bitmap per TB slot."""
        return self.capacity * self.capacity
