"""Concrete invariant checkers for the timing model's structures.

Each checker watches one component and knows three things: how to
*sweep* it (scan structural invariants mid-run), optionally how to
*finalize* it (end-of-run conservation laws), and how to *inject* a
violation of each invariant class it guards.  Injection is used by tests
and the CI sanitizer job to prove detection end-to-end — a checker whose
violation class has never fired is a checker that may not work.

Registered by :func:`repro.system.build_gpu` whenever the simulator
carries a :class:`~repro.sanitizer.core.Sanitizer`.  Checkers are
white-box on purpose: they read private component state (``_heap``,
``_pending``, ``_flags``) because their whole job is to catch that state
going structurally wrong.

Tag inventory (stable; documented in DESIGN.md §8):

== ========================= ==========================================
#  tag                       invariant
== ========================= ==========================================
1  queue.past_event          no pending/popped event behind the clock
2  queue.watcher_order       time-watcher calls strictly increasing
3  tlb.overfill              per-set occupancy <= associativity
4  tlb.misplaced             VPN-indexed entry lives in its index set
5  tlb.duplicate             one valid entry per VPN under VPN indexing
6  tlb.stat_desync           counters registry-backed and consistent
7  partition.bounds          TB->set map tiles [0, num_sets) exactly
8  sharing.flag_range        sharing bits only within the occupancy
9  sharing.partner_adjacency 1-bit sharing targets the adjacent TB only
10 sharing.self_partner      a TB never shares with itself
11 sharing.flag_desync       all-to-all flag mirrors its partner set
12 walk.conservation         walks issued == completed + outstanding
13 walk.outstanding          zero outstanding walks at end of run
14 tb.double_dispatch        a hw TB id is resident at most once
15 tb.double_finish          a TB finishes exactly once
16 tb.resident_desync        SM residency mirrors the checker's ledger
17 tb.allocator_desync       TBID allocator in_use == resident TBs
18 tb.leak                   no TB still resident at end of run
19 warp.issue_after_retire   no issue grant for a retired warp
20 warp.orphan_issue         no issue grant for a non-resident TB
21 sm.stuck_translation      no translation waiter left at end of run
22 sched.status_range        status-table miss rates within [0, 1]
23 tenant.cross_tlb          strict partitioning: TLB entries only in
                            their owner tenant's SM slice / set slice
24 tenant.asid_leak          page-table lookups never resolve another
                            tenant's ASID (VPN tag == PPN tag)
25 tlb.dead_bypass_live      dead-entry filter bookkeeping mirrors the
                            TLB: pending fills resident, no resident
                            VPN past its bypass threshold
26 alloc.mosaic_overlap      mosaic regions are injective and their
                            per-region page counts consistent
== ========================= ==========================================

Tags 23-24 are registered by
:func:`repro.tenancy.machine.build_tenant_gpu` (multi-tenant runs only);
tag 25 only when the config enables dead-entry protection and tag 26
only under mosaic allocation; the rest by
:func:`repro.system.build_gpu` and the tenant builder alike.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from ..engine.event_queue import E_ARGS, E_CALLBACK, E_PRIO, E_SEQ, E_TIME


class QueueChecker:
    """Event-queue structural invariants (pending events vs the clock).

    Heap entries are plain ``[time, priority, seq, callback, args]``
    lists indexed by the ``E_*`` constants of
    :mod:`repro.engine.event_queue`.  The drain raises the same tag when
    it pops a past event; the sweep also catches one still pending.
    """

    def __init__(self, queue) -> None:
        self.queue = queue
        self.injectors = {
            "queue.past_event": self._inject_past_event,
            "queue.watcher_order": self._inject_watcher_disorder,
        }

    def sweep(self, san, sim) -> None:
        now = self.queue.now
        for entry in self.queue._heap:
            if entry[E_TIME] < now:
                san.violation(
                    "queue.past_event",
                    "pending event is scheduled before the current time",
                    {"event_time": entry[E_TIME], "now": now,
                     "priority": entry[E_PRIO]},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_past_event(self) -> None:
        # bypass post()'s monotonicity guard — exactly what a
        # component mutating a handed-out event (or a heap-corruption
        # bug) would do
        entry = [None] * (E_ARGS + 1)
        entry[E_TIME] = self.queue.now - 1.0
        entry[E_PRIO] = 0
        entry[E_SEQ] = -1
        entry[E_CALLBACK] = lambda: None
        entry[E_ARGS] = ()
        heapq.heappush(self.queue._heap, entry)

    def _inject_watcher_disorder(self) -> None:
        san = self.queue.sanitizer
        if san is not None:
            # pretend a watcher call for a far-future time already
            # happened; the next genuine clock advance then runs
            # backwards (needs a live time watcher, i.e. --sample-every)
            san.check_watch(self.queue.now + 1e18)


class TLBChecker:
    """Structural invariants of one set-associative TLB instance."""

    def __init__(self, tlb, registry: Optional[object] = None) -> None:
        self.tlb = tlb
        #: StatRegistry whose group must back this TLB's counters;
        #: ``None`` skips the registry cross-check (standalone TLBs)
        self.registry = registry
        self.injectors = {
            "tlb.overfill": self._inject_overfill,
            "tlb.stat_desync": self._inject_stat_desync,
        }
        # Placement/uniqueness checks only hold when the index policy
        # pins each VPN to one set of a plain VPN->PPN store.  TB-id
        # partitioning legally stores any VPN in any set (redundant
        # per-TB copies are the paper's point) and the compressed TLB
        # keys sets by range, so both opt out.
        from ..translation.tlb import SetAssociativeTLB, VPNIndexPolicy

        self._vpn_indexed = (
            type(tlb) is SetAssociativeTLB
            and type(tlb.policy) is VPNIndexPolicy
        )
        if self._vpn_indexed:
            self.injectors["tlb.misplaced"] = self._inject_misplaced
            self.injectors["tlb.duplicate"] = self._inject_duplicate

    def sweep(self, san, sim) -> None:
        tlb = self.tlb
        seen: Dict[int, int] = {}
        for set_idx, entry_set in enumerate(tlb.sets):
            if len(entry_set) > tlb.associativity:
                san.violation(
                    "tlb.overfill",
                    f"{tlb.name} set over-filled",
                    {"tlb": tlb.name, "set": set_idx,
                     "occupancy": len(entry_set), "ways": tlb.associativity},
                )
            if not self._vpn_indexed:
                continue
            for vpn in entry_set:
                # duplicate before misplaced: under single-set VPN
                # indexing a duplicate is necessarily misplaced too, and
                # the duplication is the more specific diagnosis
                if vpn in seen:
                    san.violation(
                        "tlb.duplicate",
                        f"{tlb.name} holds duplicate valid entries",
                        {"tlb": tlb.name, "vpn": vpn,
                         "sets": [seen[vpn], set_idx]},
                    )
                seen[vpn] = set_idx
                home = tlb.policy.lookup_sets(vpn, None)
                if set_idx not in home:
                    san.violation(
                        "tlb.misplaced",
                        f"{tlb.name} entry stored outside its index set",
                        {"tlb": tlb.name, "vpn": vpn, "set": set_idx,
                         "home_sets": list(home)},
                    )
        self._check_stats(san)

    def _check_stats(self, san) -> None:
        """StatRegistry cross-check: the TLB's counters must be the
        registry-visible ones, and probe accounting must be consistent
        (every access probes at least one set, so
        ``sets_probed >= hits + misses == accesses``)."""
        tlb = self.tlb
        probed = tlb.stats.counter_value("sets_probed") or 0
        if tlb.hits < 0 or tlb.misses < 0 or probed < tlb.accesses:
            san.violation(
                "tlb.stat_desync",
                f"{tlb.name} probe counters inconsistent "
                f"(hits+misses must not exceed sets probed)",
                {"tlb": tlb.name, "hits": tlb.hits, "misses": tlb.misses,
                 "accesses": tlb.accesses, "sets_probed": probed},
            )
        if self.registry is None:
            return
        group = self.registry._groups.get(tlb.stats.name)
        if group is not tlb.stats or group.counter("hits") is not tlb._hits:
            san.violation(
                "tlb.stat_desync",
                f"{tlb.name} counters are not backed by registry group "
                f"{tlb.stats.name!r}",
                {"tlb": tlb.name, "group": tlb.stats.name},
            )

    # -- injection ------------------------------------------------------ #
    def _inject_overfill(self) -> None:
        tlb = self.tlb
        for extra in range(tlb.associativity + 1):
            tlb.sets[0][-(extra + 1)] = 0

    def _inject_misplaced(self) -> None:
        tlb = self.tlb
        # a VPN whose home is set 0, stored in set 1
        vpn = tlb.num_sets * tlb.policy.granularity
        tlb.sets[1 % tlb.num_sets][vpn] = 1

    def _inject_duplicate(self) -> None:
        tlb = self.tlb
        tlb.sets[0][0] = 1
        tlb.sets[1 % tlb.num_sets][0] = 1

    def _inject_stat_desync(self) -> None:
        self.tlb._hits.inc(7)  # accesses grow, sets_probed does not


class PartitionChecker:
    """TB-id partitioning and sharing-register consistency (§IV-B)."""

    def __init__(self, tlb) -> None:
        self.tlb = tlb
        self.injectors = {"partition.bounds": self._inject_bounds}
        if tlb.sharing is not None:
            self.injectors["sharing.flag_range"] = self._inject_flag_range
            if tlb.sharing.adjacent_only:
                self.injectors["sharing.partner_adjacency"] = (
                    self._inject_partner_adjacency
                )
            else:
                self.injectors["sharing.self_partner"] = (
                    self._inject_self_partner
                )
                self.injectors["sharing.flag_desync"] = (
                    self._inject_flag_desync
                )

    def sweep(self, san, sim) -> None:
        self._check_bounds(san)
        if self.tlb.sharing is not None:
            self._check_sharing(san)

    def _check_bounds(self, san) -> None:
        policy = self.tlb.policy
        occupancy = policy.occupancy
        if occupancy >= policy.num_sets:
            return  # modulo mapping, no bounds table
        covered: List[int] = []
        for slot in range(occupancy):
            covered.extend(policy.sets_for(slot))
        if sorted(covered) != list(range(policy.num_sets)):
            san.violation(
                "partition.bounds",
                f"{self.tlb.name} TB->set map does not tile the sets",
                {"tlb": self.tlb.name, "occupancy": occupancy,
                 "num_sets": policy.num_sets,
                 "covered": sorted(set(covered)),
                 "bounds": list(policy._bounds)},
            )

    def _check_sharing(self, san) -> None:
        sharing = self.tlb.sharing
        occupancy = sharing.occupancy
        for tb_id in range(sharing.capacity):
            flagged = sharing.is_sharing(tb_id)
            if flagged and tb_id >= occupancy:
                san.violation(
                    "sharing.flag_range",
                    "sharing bit set for a TB slot beyond the occupancy",
                    {"tb": tb_id, "occupancy": occupancy,
                     "capacity": sharing.capacity},
                )
            partners = sharing.partners(tb_id)
            if tb_id in partners and occupancy > 1:
                san.violation(
                    "sharing.self_partner",
                    "a TB is registered as its own sharing partner",
                    {"tb": tb_id, "partners": list(partners)},
                )
            for partner in partners:
                if partner < 0 or partner >= occupancy:
                    san.violation(
                        "sharing.flag_range",
                        "sharing partner outside the resident TB slots",
                        {"tb": tb_id, "partner": partner,
                         "occupancy": occupancy},
                    )
            if not sharing.adjacent_only:
                # the 1-bit flag is derived state: set iff partners exist
                if flagged != bool(partners):
                    san.violation(
                        "sharing.flag_desync",
                        "all-to-all sharing flag disagrees with partners",
                        {"tb": tb_id, "flag": flagged,
                         "partners": list(partners)},
                    )
            elif flagged and list(partners) != [sharing.neighbor(tb_id)]:
                san.violation(
                    "sharing.partner_adjacency",
                    "one-bit sharing must target exactly the adjacent TB",
                    {"tb": tb_id, "partners": list(partners),
                     "neighbor": sharing.neighbor(tb_id)},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_bounds(self) -> None:
        policy = self.tlb.policy
        if policy.occupancy >= policy.num_sets:
            policy.configure_occupancy(max(1, policy.num_sets // 2))
        if policy._bounds:
            policy._bounds[0] = 1  # set 0 no longer owned by any slot
            # propagate into the per-slot cache sets_for serves from
            policy._rebuild_slot_cache()

    def _inject_flag_range(self) -> None:
        sharing = self.tlb.sharing
        if sharing.occupancy >= sharing.capacity:
            sharing.configure_occupancy(max(1, sharing.capacity // 2))
        sharing._flags[sharing.capacity - 1] = True

    def _inject_partner_adjacency(self) -> None:
        sharing = self.tlb.sharing
        # a stale flag whose partner relation broke: the flagged TB now
        # answers with a non-adjacent partner
        if sharing.occupancy < 3:
            sharing.occupancy = min(3, sharing.capacity)
        sharing._flags[0] = True
        original = type(sharing).partners
        sharing.partners = lambda tb_id: (
            [2 % sharing.occupancy] if tb_id == 0
            else original(sharing, tb_id)
        )

    def _inject_self_partner(self) -> None:
        sharing = self.tlb.sharing
        if sharing.occupancy < 2:
            sharing.occupancy = min(2, sharing.capacity)
        sharing._partners[0].add(0)
        sharing._flags[0] = True

    def _inject_flag_desync(self) -> None:
        self.tlb.sharing._flags[1] = True  # no partners recorded


class WalkerChecker:
    """Page-walk conservation across the walker pool and L2 service."""

    def __init__(self, walkers, service) -> None:
        self.walkers = walkers
        self.service = service
        self.injectors = {
            "walk.conservation": self._inject_conservation,
            "walk.outstanding": self._inject_outstanding,
        }

    def sweep(self, san, sim) -> None:
        issued = self.walkers.stats.counter("walks").value
        completed = self.service.walks_completed
        outstanding = len(self.service._pending)
        if issued != completed + outstanding:
            san.violation(
                "walk.conservation",
                "page walks issued != completed + outstanding",
                {"issued": issued, "completed": completed,
                 "outstanding": outstanding},
            )

    def final(self, san, sim) -> None:
        if self.service._pending:
            san.violation(
                "walk.outstanding",
                "page walks still outstanding at end of run",
                {"outstanding_vpns": sorted(self.service._pending)[:8],
                 "count": len(self.service._pending)},
            )

    # -- injection ------------------------------------------------------ #
    def _inject_conservation(self) -> None:
        self.walkers.stats.counter("walks").inc(3)

    def _inject_outstanding(self) -> None:
        # an orphaned waiter entry; bump issued too so the mid-run
        # conservation identity still holds and only the final fires
        self.service._pending.setdefault(-1, [])
        self.walkers.stats.counter("walks").inc()


class LifecycleChecker:
    """Warp/TB lifecycle state machines across every SM.

    The SMs stream dispatch/finish/issue notifications in; the checker
    keeps its own residency ledger and cross-checks it against the SMs'
    ``resident`` tables and TBID allocators on every sweep.
    """

    def __init__(self, sms) -> None:
        self.sms = list(sms)
        #: per-SM set of hw TB ids the checker believes are resident
        self._ledger: List[Set[int]] = [set() for _ in self.sms]
        self.injectors = {
            "tb.double_finish": self._inject_double_finish,
            "tb.resident_desync": self._inject_resident_desync,
            "tb.leak": self._inject_leak,
            "warp.issue_after_retire": self._inject_issue_after_retire,
        }
        self._san = None

    def bind(self, san) -> "LifecycleChecker":
        """Attach the sanitizer and hook every SM's lifecycle stream."""
        self._san = san
        for sm in self.sms:
            sm.lifecycle = self
        return self

    # -- SM notification hooks (hot path only when sanitizing) ---------- #
    def on_dispatch(self, sm_id: int, hw_tb_id: int) -> None:
        ledger = self._ledger[sm_id]
        if hw_tb_id in ledger:
            self._san.violation(
                "tb.double_dispatch",
                "hardware TB id dispatched while still resident",
                {"sm": sm_id, "hw_tb_id": hw_tb_id},
            )
        ledger.add(hw_tb_id)

    def on_finish(self, sm_id: int, hw_tb_id: int) -> None:
        ledger = self._ledger[sm_id]
        if hw_tb_id not in ledger:
            self._san.violation(
                "tb.double_finish",
                "TB finished twice (or finished without dispatch)",
                {"sm": sm_id, "hw_tb_id": hw_tb_id},
            )
        ledger.discard(hw_tb_id)

    def on_issue(self, sm_id: int, warp) -> None:
        if warp.done:
            self._san.violation(
                "warp.issue_after_retire",
                "issue granted to a warp past its last instruction",
                {"sm": sm_id, "warp": warp.warp_id,
                 "tb": warp.tb.hw_tb_id},
            )
        if warp.tb.hw_tb_id not in self._ledger[sm_id]:
            self._san.violation(
                "warp.orphan_issue",
                "issue granted to a warp of a non-resident TB",
                {"sm": sm_id, "warp": warp.warp_id, "tb": warp.tb.hw_tb_id},
            )

    # -- sweeps --------------------------------------------------------- #
    def sweep(self, san, sim) -> None:
        for sm, ledger in zip(self.sms, self._ledger):
            resident = set(sm.resident)
            if resident != ledger:
                san.violation(
                    "tb.resident_desync",
                    "SM residency table disagrees with lifecycle ledger",
                    {"sm": sm.sm_id, "resident": sorted(resident),
                     "ledger": sorted(ledger)},
                )
            if sm.tbid_alloc.in_use != len(resident):
                san.violation(
                    "tb.allocator_desync",
                    "TBID allocator in_use != resident TB count",
                    {"sm": sm.sm_id, "in_use": sm.tbid_alloc.in_use,
                     "resident": len(resident)},
                )

    def final(self, san, sim) -> None:
        for sm, ledger in zip(self.sms, self._ledger):
            if ledger or sm.resident:
                san.violation(
                    "tb.leak",
                    "TB still resident after the event queue drained",
                    {"sm": sm.sm_id, "ledger": sorted(ledger),
                     "resident": sorted(sm.resident)},
                )
            if sm._pending:
                san.violation(
                    "sm.stuck_translation",
                    "translation waiters never filled",
                    {"sm": sm.sm_id, "vpns": sorted(sm._pending)[:8]},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_double_finish(self) -> None:
        self.on_finish(0, 10**9)  # finish for an id never dispatched

    def _inject_resident_desync(self) -> None:
        self._ledger[0].add(10**9)

    def _inject_leak(self) -> None:
        class _PhantomAlloc:
            in_use = 1

        class _PhantomSM:
            sm_id = -1
            resident = {0: None}
            _pending: Dict[int, list] = {}
            tbid_alloc = _PhantomAlloc()

        self.sms.append(_PhantomSM())
        self._ledger.append({0})

    def _inject_issue_after_retire(self) -> None:
        class _DoneTB:
            hw_tb_id = 0

        class _DoneWarp:
            done = True
            warp_id = -1
            tb = _DoneTB()

        self._ledger[0].add(0)
        try:
            self.on_issue(0, _DoneWarp())
        finally:
            self._ledger[0].discard(0)


class TenantIsolationChecker:
    """Cross-tenant isolation invariants for multi-tenant machines.

    Two invariant classes (DESIGN.md §10):

    * ``tenant.cross_tlb`` — under strict (exclusive) partitioning no
      TLB anywhere holds a translation tagged with a foreign ASID: every
      entry in a tenant's SM-slice L1s carries that tenant's tag, and
      every entry in a tenant-sliced L2 set belongs to the set's owner.
      Only swept in exclusive mode — the shared modes share storage by
      design.
    * ``tenant.asid_leak`` — the ASID router's audit trail of
      (tagged VPN -> tagged PPN) resolutions never crosses address
      spaces: the VPN's ASID tag equals the PPN's.  Swept in every mode
      (per-tenant page tables must isolate regardless of TLB sharing).
    """

    def __init__(self, machine) -> None:
        from ..tenancy.tenant import PPN_TAG_SHIFT, PartitionMode

        self.gpu = machine.gpu
        self.router = machine.router
        self._ppn_shift = PPN_TAG_SHIFT
        self._vpn_shift = machine.router.vpn_tag_shift
        self._exclusive = machine.mode is PartitionMode.EXCLUSIVE
        self.injectors = {"tenant.asid_leak": self._inject_asid_leak}
        if self._exclusive:
            self.injectors["tenant.cross_tlb"] = self._inject_cross_tlb

    def sweep(self, san, sim) -> None:
        if self._exclusive:
            self._check_cross_tlb(san)
        self._check_asid_leak(san)

    def _check_cross_tlb(self, san) -> None:
        from ..core.partitioned_tlb import TenantIndexPolicy
        from ..translation.compression import CompressedTLB

        shift = self._vpn_shift
        # in exclusive mode lane ``tid`` is tenant ``tid``'s SM slice
        for tid, lane in enumerate(self.gpu.lanes):
            for sm in lane.sms:
                tlb = sm.l1_tlb
                if isinstance(tlb, CompressedTLB):
                    continue  # range-keyed sets; keys are not raw VPNs
                for set_idx, entry_set in enumerate(tlb.sets):
                    for vpn in entry_set:
                        if vpn >> shift != tid:
                            san.violation(
                                "tenant.cross_tlb",
                                "foreign-tenant entry in an exclusive "
                                "SM slice's L1 TLB",
                                {"sm": sm.sm_id, "set": set_idx, "vpn": vpn,
                                 "owner": tid, "tagged": vpn >> shift},
                            )
        l2 = self.gpu.l2_tlb
        policy = l2.policy
        if isinstance(policy, TenantIndexPolicy):
            for set_idx, entry_set in enumerate(l2.sets):
                owner = policy.tenant_for_set(set_idx)
                for vpn in entry_set:
                    if vpn >> shift != owner:
                        san.violation(
                            "tenant.cross_tlb",
                            "L2 TLB entry stored in another tenant's "
                            "set slice",
                            {"set": set_idx, "vpn": vpn, "owner": owner,
                             "tagged": vpn >> shift},
                        )

    def _check_asid_leak(self, san) -> None:
        audit = self.router.audit
        vpn_shift = self._vpn_shift
        ppn_shift = self._ppn_shift
        while audit:
            vpn, ppn = audit.popleft()
            if vpn >> vpn_shift != ppn >> ppn_shift:
                san.violation(
                    "tenant.asid_leak",
                    "page-table lookup resolved into another tenant's "
                    "address space",
                    {"vpn": vpn, "ppn": ppn,
                     "vpn_asid": vpn >> vpn_shift,
                     "ppn_asid": ppn >> ppn_shift},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_cross_tlb(self) -> None:
        # plant a foreign-tagged translation in tenant 0's SM slice, in
        # the VPN's own home set so only the tenant invariant trips (a
        # misplaced entry would be the generic TLBChecker's diagnosis)
        tlb = self.gpu.lanes[0].sms[0].l1_tlb
        foreign_vpn = (1 << self._vpn_shift) | 3
        try:
            home = tlb.policy.lookup_sets(foreign_vpn, None)[0]
        except (ValueError, TypeError):
            home = 0  # TB-id-indexed policies place any VPN anywhere
        tlb.sets[home][foreign_vpn] = 3

    def _inject_asid_leak(self) -> None:
        # a resolution whose frame tag names a different tenant
        self.router.audit.append((5, (1 << self._ppn_shift) | 5))


class StatusTableChecker:
    """TLB status table sanity for the thrashing-aware TB scheduler."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.injectors = {"sched.status_range": self._inject_status_range}

    def sweep(self, san, sim) -> None:
        for sm_id, rate in enumerate(self.scheduler.table.snapshot()):
            if rate is not None and not 0.0 <= rate <= 1.0:
                san.violation(
                    "sched.status_range",
                    "status-table instant miss rate outside [0, 1]",
                    {"sm": sm_id, "rate": rate},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_status_range(self) -> None:
        self.scheduler.table._entries[0].ema_miss_rate = 1.5


class DeadEntryChecker:
    """Dead-entry filter bookkeeping vs the TLB it protects (tag 25).

    Two invariants tie the predictor to reality:

    * every VPN the filter still considers *pending* (filled, verdict
      outstanding) must actually be resident in the TLB — a pending
      VPN that is gone means an eviction or invalidation bypassed the
      filter's callbacks, so its streaks (and thus bypass decisions)
      are built on fiction;
    * no *resident* VPN may carry a streak at or past the bypass
      threshold — its fill should have been bypassed, so its presence
      means the bypass gate was skipped.
    """

    def __init__(self, tlb) -> None:
        self.tlb = tlb
        self.injectors = {"tlb.dead_bypass_live": self._inject_phantom}

    def sweep(self, san, sim) -> None:
        tlb = self.tlb
        filt = tlb.dead_filter
        if filt is None:
            return
        resident = set()
        for entry_set in tlb.sets:
            resident.update(entry_set)
        for vpn in filt._pending:
            if vpn not in resident:
                san.violation(
                    "tlb.dead_bypass_live",
                    f"{tlb.name} dead-entry filter tracks a fill that is "
                    f"no longer resident",
                    {"tlb": tlb.name, "vpn": vpn,
                     "pending": len(filt._pending)},
                )
        threshold = filt.threshold
        if threshold is None:
            return
        for vpn in resident:
            if filt._streak.get(vpn, 0) >= threshold:
                san.violation(
                    "tlb.dead_bypass_live",
                    f"{tlb.name} holds a VPN whose fill should have been "
                    f"bypassed (streak at threshold)",
                    {"tlb": tlb.name, "vpn": vpn,
                     "streak": filt._streak.get(vpn, 0),
                     "threshold": threshold},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_phantom(self) -> None:
        # a pending fill for a VPN the TLB has never held
        self.tlb.dead_filter._pending.add(-7)


class MosaicChecker:
    """Mosaic allocator structural invariants (tag 26).

    The whole point of mosaic placement is that distinct virtual
    regions own *distinct* physical regions (frames never overlap) and
    that per-region residency counts stay within ``(0,
    pages_per_region]`` and in lockstep with the region map — a drifted
    count would leak or double-free physical regions on release.
    """

    def __init__(self, uvm) -> None:
        self.uvm = uvm
        self.injectors = {"alloc.mosaic_overlap": self._inject_overlap}

    def sweep(self, san, sim) -> None:
        mosaic = self.uvm.mosaic
        if mosaic is None:
            return
        owners: Dict[int, int] = {}
        for vregion, pregion in mosaic._regions.items():
            if pregion in owners:
                san.violation(
                    "alloc.mosaic_overlap",
                    "two virtual regions mapped onto one physical region",
                    {"physical_region": pregion,
                     "virtual_regions": [owners[pregion], vregion]},
                )
            owners[pregion] = vregion
        ppr = mosaic.pages_per_region
        for vregion, count in mosaic._region_pages.items():
            if vregion not in mosaic._regions or not 0 < count <= ppr:
                san.violation(
                    "alloc.mosaic_overlap",
                    "mosaic per-region page count inconsistent with the "
                    "region map",
                    {"virtual_region": vregion, "count": count,
                     "pages_per_region": ppr,
                     "committed": vregion in mosaic._regions},
                )

    # -- injection ------------------------------------------------------ #
    def _inject_overlap(self) -> None:
        # two phantom virtual regions sharing one physical region
        mosaic = self.uvm.mosaic
        mosaic._regions[-1] = 999_999
        mosaic._regions[-2] = 999_999
        mosaic._region_pages[-1] = 1
        mosaic._region_pages[-2] = 1
