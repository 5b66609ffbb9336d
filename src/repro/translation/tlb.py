"""Set-associative TLB models.

There is one TLB, :class:`SetAssociativeTLB`, assembled from five parts
chosen once at construction, so the paper's mechanisms compose:

* an :class:`IndexPolicy` decides *which sets* a lookup probes and an
  insertion targets (baseline: VPN index bits; the paper's TB-id
  partitioning and the tenant slice plug in here, see
  :mod:`repro.core.partitioned_tlb`);
* the entry format is the class itself: per-page entries here, and
  three subclasses that override only the per-set hooks
  (``_probe_set``, ``_refresh``, ``_insert_new``, ``_peek_set``) —
  stride-compressed ranges and contiguity bitmaps
  (:mod:`repro.translation.compression`) and per-ASID sub-entries
  (:class:`SubEntrySharedTLB`);
* the replacement order (``"lru"`` or ``"fifo"``);
* an :class:`EvictionHook` that sees every evicted entry and the SM's TB
  lifecycle (default: drop; the paper's set-sharing spill and the
  multi-tenant accounting plug in here);
* an optional fill filter (:class:`DeadEntryFilter`).

"Our approach + compression" is therefore just the TB-id policy and the
spill hook on the compressed format.

Timing note: a lookup that probes ``k`` sets costs ``k`` times the base
lookup latency (paper §IV-B: without extra comparators each additional
set serializes).  ``probe`` returns ``(ppn, sets_probed)`` — ``ppn`` is
``None`` on a miss — so the SM charges the right latency.

Each TLB chooses its ``probe`` and ``insert`` once, from its parts (see
:meth:`SetAssociativeTLB._specialize`): the per-page, LRU, unfiltered,
unobserved, untraced TLB — every L2 TLB and every baseline and TB-id
partitioned L1 — gets a pair with the set walk, refresh, fill, eviction
and spill inlined; every other combination keeps the general methods.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..engine.stats import StatGroup
from ..telemetry.tracer import CAT_TLB

#: ``(ppn, sets_probed)``; ``ppn`` is ``None`` on a miss
ProbeResult = Tuple[Optional[int], int]

#: ``spill(item, tb_id)`` places a raw evicted ``(key, payload)`` item
#: elsewhere and returns the set it landed in, or ``None`` if dropped
Spill = Callable[[Tuple[int, Any], Optional[int]], Optional[int]]


class IndexPolicy:
    """Maps a (vpn, tb_id) lookup/insert to TLB set indices."""

    #: set-sharing register consulted by lookups (TB-id indexing only)
    sharing = None

    def configure_occupancy(self, occupancy: int) -> None:
        """A kernel's TB occupancy; only TB-id indexing depends on it."""

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        """Sets that must be probed to find ``vpn``, in probe order."""
        raise NotImplementedError

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        """Candidate sets for inserting ``vpn`` (first is preferred)."""
        raise NotImplementedError


class VPNIndexPolicy(IndexPolicy):
    """Baseline: the VPN's low-order index bits select a single set.

    ``granularity`` groups ``granularity`` consecutive VPNs into the same
    set — the compressed TLB uses this so that all pages coalescible into
    one range entry live in one set.
    """

    def __init__(self, num_sets: int, granularity: int = 1) -> None:
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        self.num_sets = num_sets
        self.granularity = granularity
        # one interned 1-tuple per set: lookup_sets indexes instead of
        # allocating a fresh tuple per probe (the allocation showed up
        # in the probe profile at fig2 rates)
        self._set_tuples = tuple((i,) for i in range(num_sets))
        # power-of-two geometry (the common config) turns the div/mod
        # into shift/mask; VPNs are non-negative so they agree exactly
        if num_sets & (num_sets - 1) == 0 and granularity & (granularity - 1) == 0:
            self._shift = granularity.bit_length() - 1
            self._mask = num_sets - 1
        else:
            self._shift = None
            self._mask = 0

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        if self._shift is not None:
            return self._set_tuples[(vpn >> self._shift) & self._mask]
        return self._set_tuples[(vpn // self.granularity) % self.num_sets]

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return self.lookup_sets(vpn, tb_id)


class MaskedVPNIndexPolicy(VPNIndexPolicy):
    """Index by the VPN's low (untagged) bits only.

    Multi-tenant VPNs carry the tenant's ASID in bits at and above
    ``tag_shift`` (see :mod:`repro.tenancy`).  Masking the tag before
    indexing makes co-tenant translations of the same base page land in
    the same set — required by :class:`SubEntrySharedTLB`, whose entries
    are keyed by base VPN.
    """

    def __init__(self, num_sets: int, tag_shift: int, granularity: int = 1) -> None:
        super().__init__(num_sets, granularity)
        if tag_shift <= 0:
            raise ValueError(f"tag_shift must be positive, got {tag_shift}")
        self.tag_shift = tag_shift
        self._base_mask = (1 << tag_shift) - 1

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return super().lookup_sets(vpn & self._base_mask, tb_id)

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return self.lookup_sets(vpn, tb_id)


class EvictionHook:
    """What happens to an entry a fill displaced; this default drops it.

    A hook is bound to one TLB when it is built and then sees every
    eviction and the SM's TB lifecycle.  A hook that also defines
    ``observe_probe(vpn, hit)`` is told the outcome of every probe.
    Hooks keep no reference to their TLB (``evict`` is handed it), so a
    finished machine is freed by reference counting alone.

    A hook that only moves entries sets :attr:`spill` in ``bind``
    instead of overriding ``evict``; the specialized fill path then
    calls it directly.  Overriding ``evict`` (or defining
    ``observe_probe``) keeps the TLB on its general path.
    """

    observe_probe = None
    #: where evictions go (a :data:`Spill`); ``None`` drops them
    spill: Optional[Spill] = None

    def bind(self, tlb: "SetAssociativeTLB") -> None:
        """Attach to ``tlb`` (counters go into its stat group)."""

    def evict(
        self,
        tlb: "SetAssociativeTLB",
        item: Tuple[int, Any],
        vpn: int,
        tb_id: Optional[int],
    ) -> Optional[int]:
        """``item`` (a raw ``(key, payload)``) was displaced from ``tlb``
        by a fill of ``vpn``; return the set it spilled to, or ``None``
        if dropped."""
        spill = self.spill
        return None if spill is None else spill(item, tb_id)

    def configure_occupancy(self, occupancy: int) -> None:
        """A new kernel's TB occupancy (already clamped to >= 1)."""

    def on_tb_finished(self, tb_id: int) -> None:
        """Hardware TB ``tb_id`` finished; entries are never flushed."""


class SetAssociativeTLB:
    """Set-associative TLB with per-page entries, built from parts.

    Entries map VPN -> PPN.  Each set is an ``OrderedDict`` in
    replacement order (next victim first).  ``policy``, ``replacement``,
    ``hook`` and ``dead_filter`` are the pluggable parts (see the module
    docstring); the entry-format subclasses take the same parts.
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        lookup_latency: float,
        policy: Optional[IndexPolicy] = None,
        stats: Optional[StatGroup] = None,
        name: str = "tlb",
        replacement: str = "lru",
        hook: Optional[EvictionHook] = None,
        dead_filter: Optional["DeadEntryFilter"] = None,
    ) -> None:
        if num_entries <= 0 or associativity <= 0:
            raise ValueError("num_entries and associativity must be positive")
        if num_entries % associativity != 0:
            raise ValueError(
                f"{num_entries} entries not divisible by associativity {associativity}"
            )
        if replacement not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement {replacement!r}")
        self.name = name
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self.lookup_latency = lookup_latency
        self.policy = policy if policy is not None else VPNIndexPolicy(self.num_sets)
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")
        self._sets_probed = self.stats.counter("sets_probed")
        # telemetry (see bind_tracer); a bound tracer keeps the TLB on
        # its general path
        self._tracer = None
        self._clock = None
        self._track = 0
        self.replacement = replacement
        # LRU promotes on touch; FIFO leaves insertion order alone, so
        # every move_to_end below is gated on this flag
        self._refresh_lru = replacement == "lru"
        # counters are created format, hook, filter — the order the
        # stat dumps (and so the pinned result digests) list them in
        self._init_format()
        self.hook = hook if hook is not None else EvictionHook()
        self.hook.bind(self)
        self._evict = self.hook.evict
        self._observe_probe = self.hook.observe_probe
        #: optional dead-entry miss protection; probes then notify it
        self.dead_filter = dead_filter
        if dead_filter is not None:
            dead_filter.bind(self)
        self._specialize()

    def _init_format(self) -> None:
        """Create the entry format's own counters (formats override)."""

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def bind_tracer(self, tracer, clock, track: int) -> None:
        """Attach a telemetry tracer emitting hit/miss/evict instants.

        ``clock`` is a zero-arg callable returning the current cycle
        (the TLB itself is untimed); ``track`` is the tracer lane.  A
        disabled tracer (or ``None``) detaches.  Either way the TLB
        chooses its ``probe``/``insert`` again: a traced TLB always takes
        the general path.
        """
        if tracer is None or not tracer.enabled:
            self._tracer = None
        else:
            self._tracer = tracer
            self._clock = clock
            self._track = track
        self._specialize()

    # ------------------------------------------------------------------ #
    # Specialization (probe/insert chosen once from the parts)
    # ------------------------------------------------------------------ #
    def _specialize(self) -> None:
        """Choose this TLB's ``probe`` and ``insert`` from its parts.

        Called when the TLB is built and again by :meth:`bind_tracer`,
        so callers must fetch ``probe``/``insert`` after both (the
        machine builder binds tracers before it builds the SMs and the
        translation service that cache them).  The per-page, LRU,
        unfiltered, untraced TLB whose hook neither observes probes nor
        overrides ``evict`` gets the closures of :func:`_page_lru_path`
        as instance attributes; any other TLB keeps the general methods
        below.  The closures hold the storage, counters and parts, never
        the TLB itself, so no reference cycle is made.
        """
        self.__dict__.pop("probe", None)
        self.__dict__.pop("insert", None)
        hook = self.hook
        if (
            type(self) is SetAssociativeTLB
            and self._refresh_lru
            and self.dead_filter is None
            and self._tracer is None
            and self._observe_probe is None
            and type(hook).evict is EvictionHook.evict
        ):
            self.probe, self.insert = _page_lru_path(self, hook.spill)

    # ------------------------------------------------------------------ #
    # TB lifecycle (the SM calls these per kernel and per finished TB)
    # ------------------------------------------------------------------ #
    @property
    def sharing(self):
        """The index policy's set-sharing register, if any."""
        return self.policy.sharing

    def configure_occupancy(self, occupancy: int) -> None:
        """A kernel's compile-time TB occupancy: TB-id indexing re-maps
        its sets and the hook re-sizes its sharing register."""
        occupancy = max(1, occupancy)
        self.policy.configure_occupancy(occupancy)
        self.hook.configure_occupancy(occupancy)

    def on_tb_finished(self, tb_id: int) -> None:
        self.hook.on_tb_finished(tb_id)

    # ------------------------------------------------------------------ #
    # Per-set storage hooks (overridden by the entry formats)
    # ------------------------------------------------------------------ #
    def _probe_set(self, set_idx: int, vpn: int) -> Optional[int]:
        """Probe one set; on hit refresh LRU and return the PPN."""
        entry_set = self.sets[set_idx]
        ppn = entry_set.get(vpn)
        if ppn is not None and self._refresh_lru:
            entry_set.move_to_end(vpn)
        return ppn

    def _refresh(self, set_idx: int, vpn: int, ppn: int) -> bool:
        """If ``vpn`` is already stored in this set, update it in place."""
        entry_set = self.sets[set_idx]
        if vpn in entry_set:
            entry_set[vpn] = ppn
            if self._refresh_lru:
                entry_set.move_to_end(vpn)
            return True
        return False

    def _insert_new(
        self, set_idx: int, vpn: int, ppn: int
    ) -> Optional[Tuple[int, Any]]:
        """Insert a fresh entry, returning the evicted ``(key, payload)``."""
        entry_set = self.sets[set_idx]
        evicted = None
        if len(entry_set) >= self.associativity:
            evicted = entry_set.popitem(last=False)
            self._evictions.value += 1
        entry_set[vpn] = ppn
        return evicted

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def probe(self, vpn: int, tb_id: Optional[int] = None) -> ProbeResult:
        """Probe for ``vpn``: ``(ppn, sets_probed)``, ``ppn`` ``None`` on
        a miss.  Updates LRU and the hit/miss statistics."""
        probed = 0
        tracer = self._tracer
        observe = self._observe_probe
        for set_idx in self.policy.lookup_sets(vpn, tb_id):
            probed += 1
            ppn = self._probe_set(set_idx, vpn)
            if ppn is not None:
                self._hits.value += 1
                self._sets_probed.value += probed
                if self.dead_filter is not None:
                    self.dead_filter.on_hit(vpn)
                if tracer is not None:
                    tracer.instant(
                        CAT_TLB, "hit", self._clock(), self._track,
                        {"vpn": vpn, "tb": tb_id, "set": set_idx},
                    )
                if observe is not None:
                    observe(vpn, True)
                return ppn, probed
        if probed < 1:
            probed = 1
        self._misses.value += 1
        self._sets_probed.value += probed
        if tracer is not None:
            tracer.instant(
                CAT_TLB, "miss", self._clock(), self._track,
                {"vpn": vpn, "tb": tb_id},
            )
        if observe is not None:
            observe(vpn, False)
        return None, probed

    def contains(self, vpn: int, tb_id: Optional[int] = None) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        sets = self.policy.lookup_sets(vpn, tb_id)
        return any(self._peek_set(s, vpn) for s in sets)

    def _peek_set(self, set_idx: int, vpn: int) -> bool:
        return vpn in self.sets[set_idx]

    def probe_latency(self, sets_probed: int) -> float:
        """Latency of a lookup that serialized over ``sets_probed`` sets."""
        return self.lookup_latency * max(sets_probed, 1)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def insert(self, vpn: int, ppn: int, tb_id: Optional[int] = None) -> Optional[int]:
        """Insert a translation; returns the evicted VPN key, if any.

        If the translation is already present in a candidate set it is
        refreshed in place.  Otherwise it goes to the first candidate set,
        evicting that set's next victim when full; the evicted entry is
        offered to the eviction hook (set sharing spills it there).
        """
        candidates = self.policy.insert_sets(vpn, tb_id)
        for set_idx in candidates:
            if self._refresh(set_idx, vpn, ppn):
                return None
        df = self.dead_filter
        if df is not None and df.should_bypass(vpn):
            # predicted dead: skip the fill entirely so a live entry is
            # never displaced for it (arXiv 2606.00486)
            return None
        evicted = self._insert_new(candidates[0], vpn, ppn)
        if df is not None:
            df.on_fill(vpn)
        if evicted is None:
            return None
        spilled_to = self._evict(self, evicted, vpn, tb_id)
        if df is not None and spilled_to is None:
            # spilled entries stay resident, so only a true drop can
            # prove the victim's fill was dead
            df.on_evict(evicted[0])
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                CAT_TLB, "evict", self._clock(), self._track,
                {"vpn": evicted[0], "tb": tb_id, "spilled_to": spilled_to},
            )
        return evicted[0]

    def invalidate(self, vpn: int) -> bool:
        """Remove ``vpn`` from every set; returns True if it was present."""
        found = False
        for entry_set in self.sets:
            if vpn in entry_set:
                del entry_set[vpn]
                found = True
        if found and self.dead_filter is not None:
            # a shootdown is not evidence of deadness — forget the fill
            self.dead_filter.on_invalidate(vpn)
        return found

    def flush(self) -> None:
        for entry_set in self.sets:
            entry_set.clear()
        if self.dead_filter is not None:
            self.dead_filter.on_flush()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def accesses(self) -> int:
        return self._hits.value + self._misses.value

    def set_occupancies(self) -> List[int]:
        return [len(s) for s in self.sets]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}: {self.num_entries} entries, "
            f"{self.associativity}-way, {self.occupancy} valid)"
        )


def _page_lru_path(
    tlb: SetAssociativeTLB, spill: Optional[Spill]
) -> Tuple[Callable[..., ProbeResult], Callable[..., Optional[int]]]:
    """The specialized ``(probe, insert)`` of a per-page LRU TLB.

    Op for op what the general methods do with the per-page hooks, a
    dropping or spilling eviction hook, no filter, observer or tracer.
    A power-of-two VPN index reads its one set with a shift and a mask;
    any other policy is asked for its sets on every call, so a later
    ``configure_occupancy`` is seen.  Only ``tlb``'s parts are captured.
    """
    sets = tlb.sets
    associativity = tlb.associativity
    hits = tlb._hits
    misses = tlb._misses
    evictions = tlb._evictions
    sets_probed = tlb._sets_probed
    policy = tlb.policy

    if type(policy) is VPNIndexPolicy and policy._shift is not None and spill is None:
        shift = policy._shift
        mask = policy._mask

        def probe(vpn: int, tb_id: Optional[int] = None) -> ProbeResult:
            sets_probed.value += 1
            entry_set = sets[(vpn >> shift) & mask]
            ppn = entry_set.get(vpn)
            if ppn is None:
                misses.value += 1
                return None, 1
            entry_set.move_to_end(vpn)
            hits.value += 1
            return ppn, 1

        def insert(vpn: int, ppn: int, tb_id: Optional[int] = None) -> Optional[int]:
            entry_set = sets[(vpn >> shift) & mask]
            if vpn in entry_set:
                entry_set[vpn] = ppn
                entry_set.move_to_end(vpn)
                return None
            victim = None
            if len(entry_set) >= associativity:
                victim = entry_set.popitem(last=False)[0]
                evictions.value += 1
            entry_set[vpn] = ppn
            return victim

        return probe, insert

    lookup_sets = policy.lookup_sets
    insert_sets = policy.insert_sets

    def probe(vpn: int, tb_id: Optional[int] = None) -> ProbeResult:
        probed = 0
        for set_idx in lookup_sets(vpn, tb_id):
            probed += 1
            entry_set = sets[set_idx]
            ppn = entry_set.get(vpn)
            if ppn is not None:
                entry_set.move_to_end(vpn)
                hits.value += 1
                sets_probed.value += probed
                return ppn, probed
        if probed < 1:
            probed = 1
        misses.value += 1
        sets_probed.value += probed
        return None, probed

    def insert(vpn: int, ppn: int, tb_id: Optional[int] = None) -> Optional[int]:
        candidates = insert_sets(vpn, tb_id)
        for set_idx in candidates:
            entry_set = sets[set_idx]
            if vpn in entry_set:
                entry_set[vpn] = ppn
                entry_set.move_to_end(vpn)
                return None
        entry_set = sets[candidates[0]]
        if len(entry_set) < associativity:
            entry_set[vpn] = ppn
            return None
        victim = entry_set.popitem(last=False)
        evictions.value += 1
        entry_set[vpn] = ppn
        if spill is not None:
            spill(victim, tb_id)
        return victim[0]

    return probe, insert


class SubEntrySharedTLB(SetAssociativeTLB):
    """Sub-entry-sharing TLB for multi-tenant GPUs (arXiv 2404.18361).

    Entries are keyed by the *base* VPN (ASID tag stripped) and hold one
    sub-entry per ASID: ``{base_vpn: {asid: ppn}}``.  Co-tenant
    translations of the same virtual page share a single tag + LRU slot,
    so a tenant filling a base page already cached by another tenant
    costs no eviction — the mechanism's whole benefit over a plain
    ASID-tagged TLB.  A tag hit with no sub-entry for the probing ASID
    is still a miss (counted separately as ``tag_hit_sub_miss``); the
    subsequent fill lands as a new sub-entry (``sub_entry_fills``)
    without displacing anything.

    Replacement is at whole-entry granularity: evicting an LRU entry
    drops *all* its sub-entries (``sub_entry_evictions`` counts them).
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        lookup_latency: float,
        tag_shift: int,
        policy: Optional[IndexPolicy] = None,
        **parts: Any,
    ) -> None:
        self.tag_shift = tag_shift
        self._base_mask = (1 << tag_shift) - 1
        if policy is None:
            policy = MaskedVPNIndexPolicy(num_entries // associativity, tag_shift)
        super().__init__(num_entries, associativity, lookup_latency, policy, **parts)

    def _init_format(self) -> None:
        self._sub_entry_fills = self.stats.counter("sub_entry_fills")
        self._tag_hit_sub_miss = self.stats.counter("tag_hit_sub_miss")
        self._sub_entry_evictions = self.stats.counter("sub_entry_evictions")

    def split(self, vpn: int) -> Tuple[int, int]:
        """``tagged vpn -> (asid, base_vpn)``."""
        return vpn >> self.tag_shift, vpn & self._base_mask

    # ------------------------------------------------------------------ #
    # Per-set storage hooks (entries are {base_vpn: {asid: ppn}})
    # ------------------------------------------------------------------ #
    def _probe_set(self, set_idx: int, vpn: int) -> Optional[int]:
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        entry_set = self.sets[set_idx]
        sub = entry_set.get(base)
        if sub is None:
            return None
        if self._refresh_lru:
            entry_set.move_to_end(base)
        ppn = sub.get(asid)
        if ppn is None:
            self._tag_hit_sub_miss.value += 1
        return ppn

    def _refresh(self, set_idx: int, vpn: int, ppn: int) -> bool:
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        entry_set = self.sets[set_idx]
        sub = entry_set.get(base)
        if sub is None:
            return False
        if asid not in sub:
            self._sub_entry_fills.value += 1
        sub[asid] = ppn
        if self._refresh_lru:
            entry_set.move_to_end(base)
        return True

    def _insert_new(
        self, set_idx: int, vpn: int, ppn: int
    ) -> Optional[Tuple[int, Any]]:
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        entry_set = self.sets[set_idx]
        evicted = None
        if len(entry_set) >= self.associativity:
            evicted = entry_set.popitem(last=False)
            self._evictions.value += 1
            self._sub_entry_evictions.value += len(evicted[1])
        entry_set[base] = {asid: ppn}
        return evicted

    def _peek_set(self, set_idx: int, vpn: int) -> bool:
        sub = self.sets[set_idx].get(vpn & self._base_mask)
        return sub is not None and (vpn >> self.tag_shift) in sub

    def invalidate(self, vpn: int) -> bool:
        """Remove the probing ASID's sub-entry for ``vpn`` everywhere."""
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        found = False
        for entry_set in self.sets:
            sub = entry_set.get(base)
            if sub is not None and asid in sub:
                del sub[asid]
                found = True
                if not sub:
                    del entry_set[base]
        return found


class DeadEntryFilter:
    """Dead-entry miss protection for a TLB (arXiv 2606.00486).

    A fill whose entry is evicted before it is ever re-referenced was
    *dead on arrival*: it spent a slot (and possibly displaced a live
    translation) for nothing.  The filter tracks, per VPN, the streak of
    consecutive dead fills; once the streak reaches ``threshold``, later
    fills of that VPN are *bypassed* — the translation is still returned
    to the requester (the walk result is in hand), it just never
    occupies a slot.  A probe hit resets the VPN's streak, an
    invalidation (TLB shootdown) forgets the outstanding fill without
    judging it, and a flush forgets every outstanding fill.

    ``threshold=None`` is an infinite threshold: the predictor observes
    (``dead_fills`` still counts) but never bypasses — byte-identical to
    running without the filter, which is the metamorphic identity gate.
    Its counters live in the stat group of the TLB it is built into.
    """

    def __init__(self, threshold: Optional[int] = 2) -> None:
        if threshold is not None and threshold <= 0:
            raise ValueError(f"threshold must be positive or None, got {threshold}")
        self.threshold = threshold
        #: VPNs filled but not yet re-referenced (the in-flight verdicts)
        self._pending: set = set()
        #: VPN -> consecutive dead fills since its last hit
        self._streak: dict = {}

    def bind(self, tlb: SetAssociativeTLB) -> None:
        self._dead_fills = tlb.stats.counter("dead_fills")
        self._bypassed_fills = tlb.stats.counter("bypassed_fills")

    def should_bypass(self, vpn: int) -> bool:
        """Decide (and count) whether a fill of ``vpn`` is bypassed."""
        if self.threshold is None:
            return False
        if self._streak.get(vpn, 0) >= self.threshold:
            self._bypassed_fills.value += 1
            return True
        return False

    def on_fill(self, vpn: int) -> None:
        self._pending.add(vpn)

    def on_hit(self, vpn: int) -> None:
        if vpn in self._pending:
            self._pending.discard(vpn)
            self._streak.pop(vpn, None)

    def on_evict(self, vpn: int) -> None:
        if vpn in self._pending:
            self._pending.discard(vpn)
            self._streak[vpn] = self._streak.get(vpn, 0) + 1
            self._dead_fills.value += 1

    def on_invalidate(self, vpn: int) -> None:
        self._pending.discard(vpn)

    def on_flush(self) -> None:
        self._pending.clear()

    @property
    def dead_fills(self) -> int:
        return self._dead_fills.value

    @property
    def bypassed_fills(self) -> int:
        return self._bypassed_fills.value

    def streak(self, vpn: int) -> int:
        return self._streak.get(vpn, 0)
