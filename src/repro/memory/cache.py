"""Set-associative data cache (functional, LRU).

Used for the per-SM L1 data cache (16 KB, 4-way, 128 B lines) and the
per-partition L2 slices (128 KB, 8-way).  The cache is functional — it
answers hit/miss and tracks LRU/dirty state — while timing is charged by
the memory subsystem around it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..engine.stats import StatGroup


def line_shift(line_bytes: int) -> int:
    """``log2(line_bytes)``: line addresses are ``addr >> line_shift``.

    Shifting is exact for negative addresses too (it floors, like
    ``//``).  Lines must be a positive power of two, as ``GPUConfig``
    also enforces.
    """
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ValueError(
            f"line_bytes must be a positive power of two, got {line_bytes}"
        )
    return line_bytes.bit_length() - 1


class Cache:
    """Physically-addressed set-associative cache with LRU replacement."""

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 128,
        stats: Optional[StatGroup] = None,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or associativity <= 0:
            raise ValueError("cache dimensions must be positive")
        self._line_shift = line_shift(line_bytes)
        if size_bytes % (associativity * line_bytes) != 0:
            raise ValueError(
                f"{size_bytes}B cache not divisible into {associativity}-way "
                f"sets of {line_bytes}B lines"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (associativity * line_bytes)
        # Each set maps line_address -> dirty flag, in LRU order.
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")
        self._writebacks = self.stats.counter("writebacks")

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access a byte address; returns True on hit.

        A miss does *not* allocate — call :meth:`fill` when the refill
        arrives so that timing models control allocation order.
        """
        line = addr >> self._line_shift
        entry_set = self.sets[line % self.num_sets]
        if line in entry_set:
            entry_set.move_to_end(line)
            if is_write:
                entry_set[line] = True
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def fill(self, addr: int, is_write: bool = False) -> Optional[int]:
        """Allocate the line containing ``addr``; returns the evicted line
        address (if any).  Dirty evictions bump the writeback counter."""
        line = addr >> self._line_shift
        entry_set = self.sets[line % self.num_sets]
        if line in entry_set:
            entry_set.move_to_end(line)
            if is_write:
                entry_set[line] = True
            return None
        evicted_line = None
        if len(entry_set) >= self.associativity:
            evicted_line, dirty = entry_set.popitem(last=False)
            self._evictions.value += 1
            if dirty:
                self._writebacks.value += 1
        entry_set[line] = is_write
        return evicted_line
