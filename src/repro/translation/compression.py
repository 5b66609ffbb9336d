"""Stride-range TLB compression (comparator for Fig 12).

Models the PACT'20 technique ("Enhancing address translations in
throughput processors via compression", Tang et al.): when virtually
contiguous pages map to physically contiguous frames, multiple
translations coalesce into one TLB entry holding ``(base_vpn, base_ppn,
length)``.  Ranges never cross an aligned region of ``max_ratio`` pages,
and region-granular set indexing keeps every coalescible page in one set.

The compression/decompression logic sits on the L1 lookup critical path;
``decompression_latency`` models that overhead, added to every probe
(paper §V: "Despite the compression and decompression overheads that
introduce latencies on the execution critical path...").
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .tlb import IndexPolicy, SetAssociativeTLB, VPNIndexPolicy


class CompressedTLB(SetAssociativeTLB):
    """Set-associative TLB whose entries are stride-compressed ranges.

    Storage layout: each set maps ``base_vpn -> (base_ppn, length)``.
    One range entry occupies one hardware entry regardless of length,
    which is exactly the technique's capacity benefit.
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        lookup_latency: float,
        max_ratio: int = 8,
        decompression_latency: float = 1.0,
        policy: Optional[IndexPolicy] = None,
        name: str = "ctlb",
        **parts: Any,
    ) -> None:
        if max_ratio <= 0:
            raise ValueError(f"max_ratio must be positive, got {max_ratio}")
        self.max_ratio = max_ratio
        self.decompression_latency = decompression_latency
        if policy is None:
            policy = VPNIndexPolicy(
                num_entries // associativity, granularity=max_ratio
            )
        super().__init__(
            num_entries, associativity, lookup_latency, policy, name=name,
            **parts,
        )

    def _init_format(self) -> None:
        self._coalesced = self.stats.counter("coalesced")

    # ------------------------------------------------------------------ #
    # Range helpers
    # ------------------------------------------------------------------ #
    def _region(self, vpn: int) -> int:
        return vpn // self.max_ratio

    def _covers(self, base: int, length: int, vpn: int) -> bool:
        return base <= vpn < base + length

    # ------------------------------------------------------------------ #
    # Storage hooks
    # ------------------------------------------------------------------ #
    def _probe_set(self, set_idx: int, vpn: int) -> Optional[int]:
        entry_set = self.sets[set_idx]
        for base, (base_ppn, length) in entry_set.items():
            if self._covers(base, length, vpn):
                if self._refresh_lru:
                    entry_set.move_to_end(base)
                return base_ppn + (vpn - base)
        return None

    def _refresh(self, set_idx: int, vpn: int, ppn: int) -> bool:
        """Coalesce ``vpn`` into an existing range entry when possible."""
        entry_set = self.sets[set_idx]
        region = self._region(vpn)
        for base, (base_ppn, length) in list(entry_set.items()):
            if self._covers(base, length, vpn):
                if base_ppn + (vpn - base) == ppn:
                    if self._refresh_lru:
                        entry_set.move_to_end(base)
                    return True
                # Remapped page: drop the stale range, re-insert fresh.
                del entry_set[base]
                return False
            if self._region(base) != region:
                continue
            # Extend forward: vpn is the next page with a consistent stride.
            if (
                vpn == base + length
                and ppn == base_ppn + length
                and length < self.max_ratio
            ):
                del entry_set[base]
                entry_set[base] = (base_ppn, length + 1)
                self._coalesced.inc()
                return True
            # Extend backward: vpn immediately precedes the range.
            if (
                vpn == base - 1
                and ppn == base_ppn - 1
                and length < self.max_ratio
            ):
                del entry_set[base]
                entry_set[vpn] = (ppn, length + 1)
                self._coalesced.inc()
                return True
        return False

    def _insert_new(
        self, set_idx: int, vpn: int, ppn: int
    ) -> Optional[Tuple[int, Any]]:
        entry_set = self.sets[set_idx]
        evicted = None
        if len(entry_set) >= self.associativity:
            evicted = entry_set.popitem(last=False)
            self._evictions.inc()
        entry_set[vpn] = (ppn, 1)
        return evicted

    def invalidate(self, vpn: int) -> bool:
        found = False
        for entry_set in self.sets:
            for base, (_ppn, length) in list(entry_set.items()):
                if self._covers(base, length, vpn):
                    del entry_set[base]
                    found = True
        return found

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def probe_latency(self, sets_probed: int) -> float:
        base = super().probe_latency(sets_probed)
        return base + self.decompression_latency


class ContiguityTLB(CompressedTLB):
    """Subregion-contiguity large-reach entries (arXiv 2110.08613).

    A strict generalization of the stride-range format: one entry covers
    an *aligned* region of ``max_ratio`` pages via an anchor PPN plus a
    validity bitmap, so any subset of the region's pages — not just a
    prefix run — shares the entry, as long as each page's frame sits at
    its region offset from the anchor (``ppn - offset == anchor``).
    Storage layout: each set maps ``region_base_vpn -> (anchor_ppn,
    bitmap)``.  A contiguity run of 1 (``max_ratio=1``) degenerates to
    exactly the stride format's single-page behavior: region base is the
    VPN, the anchor is the PPN, and the bitmap is always ``0b1``.
    """

    def _split(self, vpn: int) -> Tuple[int, int]:
        """``vpn -> (region_base_vpn, offset within region)``."""
        offset = vpn % self.max_ratio
        return vpn - offset, offset

    # ------------------------------------------------------------------ #
    # Storage hooks (entries are {region_base: (anchor_ppn, bitmap)})
    # ------------------------------------------------------------------ #
    def _probe_set(self, set_idx: int, vpn: int) -> Optional[int]:
        base, offset = self._split(vpn)
        entry_set = self.sets[set_idx]
        entry = entry_set.get(base)
        if entry is None or not (entry[1] >> offset) & 1:
            return None
        if self._refresh_lru:
            entry_set.move_to_end(base)
        return entry[0] + offset

    def _refresh(self, set_idx: int, vpn: int, ppn: int) -> bool:
        """Fold ``vpn`` into its region's entry when the anchor agrees."""
        base, offset = self._split(vpn)
        entry_set = self.sets[set_idx]
        entry = entry_set.get(base)
        if entry is None:
            return False
        anchor, bitmap = entry
        if anchor + offset != ppn:
            # The frame moved (or never matched the anchor): the whole
            # entry's contiguity assumption is stale — drop it and let
            # the caller re-insert fresh, mirroring the stride format's
            # remap handling.
            del entry_set[base]
            return False
        bit = 1 << offset
        if not bitmap & bit:
            entry_set[base] = (anchor, bitmap | bit)
            self._coalesced.inc()
        if self._refresh_lru:
            entry_set.move_to_end(base)
        return True

    def _insert_new(
        self, set_idx: int, vpn: int, ppn: int
    ) -> Optional[Tuple[int, Any]]:
        base, offset = self._split(vpn)
        entry_set = self.sets[set_idx]
        evicted = None
        if len(entry_set) >= self.associativity:
            evicted = entry_set.popitem(last=False)
            self._evictions.inc()
        entry_set[base] = (ppn - offset, 1 << offset)
        return evicted

    def invalidate(self, vpn: int) -> bool:
        base, offset = self._split(vpn)
        bit = 1 << offset
        found = False
        for entry_set in self.sets:
            entry = entry_set.get(base)
            if entry is not None and entry[1] & bit:
                remaining = entry[1] & ~bit
                if remaining:
                    entry_set[base] = (entry[0], remaining)
                else:
                    del entry_set[base]
                found = True
        return found
