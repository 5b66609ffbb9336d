"""Streaming multiprocessor model.

The SM drives warp state machines through the GTO issue port and, per
transaction, through the two paths of Fig 1:

* translation: private L1 TLB probe (latency scaled by sets probed);
  on a miss, a per-SM MSHR merges same-VPN requests and forwards one
  request across the NoC to the shared translation service;
* data: the per-SM memory path (L1 data cache → NoC → partitions).

The SM is policy-agnostic: the L1 TLB it is handed may be built from
any parts — the baseline VPN index, the paper's TB-id partitioning
(with or without set sharing), a compressed entry format — and the SM
only calls ``probe``/``insert``/``probe_latency`` plus the
``configure_occupancy``/``on_tb_finished`` lifecycle calls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..engine.simulator import Simulator
from ..memory.subsystem import SMMemoryPath
from ..telemetry.tracer import CAT_TB, CAT_WARP
from ..translation.address import PageGeometry
from ..translation.service import SharedTranslationService
from ..translation.tlb import SetAssociativeTLB
from .config import GPUConfig, WarpSchedulerKind
from .kernel import TBTrace
from .thread_block import TBIDAllocator, TBRuntime
from .warp import WarpRuntime
from .warp_scheduler import GTOIssuePort, TranslationAwareIssuePort

#: (warp, line_vaddr, is_write, hw_tb_id, miss_time) waiting on one VPN
#: translation; miss_time feeds the telemetry stall-interval spans
_Waiter = Tuple[WarpRuntime, int, bool, int, float]


class StreamingMultiprocessor:
    """One SM: TB slots, warp issue, private L1 TLB and L1 cache."""

    def __init__(
        self,
        sim: Simulator,
        sm_id: int,
        config: GPUConfig,
        geometry: PageGeometry,
        l1_tlb: SetAssociativeTLB,
        translation_service: SharedTranslationService,
        memory_path: SMMemoryPath,
        record_tlb_trace: bool = False,
    ) -> None:
        self.sim = sim
        # bound queue reference for the per-transaction path: reading the
        # clock and posting events skip the sim.now property hop and the
        # queue attribute lookup (both profile-visible)
        self._queue = sim.queue
        self._post = sim.queue.post
        self.sm_id = sm_id
        self.config = config
        self.geometry = geometry
        self.l1_tlb = l1_tlb
        self.translation = translation_service
        self.memory = memory_path
        #: ``on_tb_finished(sm, tb)``; the GPU owning this SM binds it
        self.on_tb_finished: Optional[
            Callable[["StreamingMultiprocessor", TBRuntime], None]
        ] = None
        if config.warp_scheduler is WarpSchedulerKind.TRANSLATION_AWARE:
            self.issue_port = TranslationAwareIssuePort(
                sim, config.issue_interval
            )
            self._note_outcome = self.issue_port.note_outcome
        else:
            self.issue_port = GTOIssuePort(sim, config.issue_interval)
            # plain GTO ignores outcomes; skip the no-op call entirely
            self._note_outcome = None
        # page-split arithmetic inlined from the (frozen) geometry: its
        # vpn()/offset() recompute bit_length per call, and this runs
        # once per memory transaction
        self._page_shift = geometry.offset_bits
        self._page_mask = geometry.offset_mask
        # the TLB's probe/insert for the per-transaction path, fetched
        # once: the TLB chose them when it was built and traced
        self._probe = l1_tlb.probe
        self._insert = l1_tlb.insert
        self._probe_latency = l1_tlb.probe_latency
        self.tbid_alloc = TBIDAllocator(config.max_tbs_per_sm)
        self.resident: Dict[int, TBRuntime] = {}
        self.occupancy_limit = config.max_tbs_per_sm
        self.stats = sim.stats.group(f"sm{sm_id}")
        self._dispatched = self.stats.counter("tbs_dispatched")
        self._completed = self.stats.counter("tbs_completed")
        self._translations_sent = self.stats.counter("l2_tlb_requests")
        self._merged = self.stats.counter("translation_mshr_merged")
        self._pending: Dict[int, List[_Waiter]] = {}
        #: sanitizer lifecycle checker (set by LifecycleChecker.bind);
        #: ``None`` keeps the unsanitized hot path to one attribute check
        self.lifecycle = None
        self.tlb_trace: Optional[List[Tuple[int, int]]] = [] if record_tlb_trace else None
        # telemetry: cache None when disabled so per-event cost is one
        # attribute check; lanes are one per SM plus one stall lane, and
        # one per TB slot (allocated lazily — hw ids recycle, so slot
        # lanes carry back-to-back, non-overlapping TB spans)
        tracer = sim.tracer
        self._tracer = tracer if tracer.enabled else None
        if self._tracer is not None:
            self._track = tracer.track(f"SM{sm_id}")
            self._stall_track = tracer.track(f"SM{sm_id} stalls")
            self._slot_tracks: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Kernel / TB lifecycle
    # ------------------------------------------------------------------ #
    def prepare_kernel(self, occupancy: int) -> None:
        """Configure per-kernel state before TBs arrive.

        ``occupancy`` is the compile-time max concurrent TBs for this
        kernel; the TB-id-partitioned TLB derives its sets-per-TB mapping
        from it (paper §IV-B).
        """
        self.occupancy_limit = min(occupancy, self.config.max_tbs_per_sm)
        self.l1_tlb.configure_occupancy(self.occupancy_limit)

    def has_free_slot(self) -> bool:
        return len(self.resident) < self.occupancy_limit

    def dispatch_tb(self, trace: TBTrace, now: float, age_base: int) -> TBRuntime:
        """Make ``trace`` resident and start its warps."""
        if not self.has_free_slot():
            raise RuntimeError(f"SM{self.sm_id} has no free TB slot")
        hw_id = self.tbid_alloc.allocate()
        tb = TBRuntime(trace, hw_id, self.sm_id, now)
        warps = [
            WarpRuntime(warp_trace, w, tb, age_base + w)
            for w, warp_trace in enumerate(trace.warps)
        ]
        tb.attach_warps(warps)
        self.resident[hw_id] = tb
        self._dispatched.inc()
        if self.lifecycle is not None:
            self.lifecycle.on_dispatch(self.sm_id, hw_id)
        if self._tracer is not None:
            self._tracer.instant(
                CAT_TB, "tb_dispatch", now, self._track,
                {"tb": trace.tb_index, "hw": hw_id},
            )
        started = False
        issue_port = self.issue_port
        for warp in warps:
            self._bind_warp_callbacks(warp, issue_port)
            if warp.done:
                continue
            started = True
            first_gap = warp.trace.instructions[0].compute_gap
            warp.ready_time = now + first_gap
            self._schedule_ready(warp)
        if not started:
            # Degenerate TB with no memory instructions: completes at once.
            self._post(now, self._finish_tb, tb)
        return tb

    def _finish_tb(self, tb: TBRuntime) -> None:
        if self.lifecycle is not None:
            # before any teardown so a double-finish is caught as the
            # lifecycle breach it is, not as an allocator ValueError
            self.lifecycle.on_finish(self.sm_id, tb.hw_tb_id)
        self.resident.pop(tb.hw_tb_id, None)
        self.tbid_alloc.release(tb.hw_tb_id)
        self._completed.inc()
        tracer = self._tracer
        if tracer is not None:
            slot = self._slot_tracks.get(tb.hw_tb_id)
            if slot is None:
                slot = tracer.track(f"SM{self.sm_id}.slot{tb.hw_tb_id}")
                self._slot_tracks[tb.hw_tb_id] = slot
            tracer.complete(
                CAT_TB,
                f"tb{tb.trace.tb_index}",
                tb.dispatch_time,
                self.sim.now - tb.dispatch_time,
                slot,
                {"tb": tb.trace.tb_index, "hw": tb.hw_tb_id,
                 "warps": len(tb.warps)},
            )
        self.l1_tlb.on_tb_finished(tb.hw_tb_id)
        self.on_tb_finished(self, tb)
        # break the warp <-> closure <-> TB cycles so the retired TB is
        # freed by reference counting, not left for the cyclic collector
        for warp in tb.warps:
            warp.request_cb = warp.grant_cb = warp.complete_cb = None
            warp.tb = None

    # ------------------------------------------------------------------ #
    # Warp issue
    # ------------------------------------------------------------------ #
    def _bind_warp_callbacks(self, warp: WarpRuntime, issue_port) -> None:
        """Bind the warp's per-transaction closures once at dispatch.

        The issue request, grant, and transaction-completion callbacks
        close only over the warp, so one set per warp replaces the three
        allocations per transaction the profile showed.  They make each
        warp a reference cycle, so :meth:`_finish_tb` drops them again.
        """
        warp.grant_cb = lambda t: self._on_grant(warp, t)
        warp.request_cb = lambda: issue_port.request(warp, warp.grant_cb)
        warp.complete_cb = lambda: self._transaction_complete(warp)

    def _schedule_ready(self, warp: WarpRuntime) -> None:
        self._post(warp.ready_time, warp.request_cb)

    def _on_grant(self, warp: WarpRuntime, grant_time: float) -> None:
        if self.lifecycle is not None:
            self.lifecycle.on_issue(self.sm_id, warp)
        # begin/next_transaction inlined: this runs once per transaction
        tx = warp.tx_issued
        if tx == 0:
            instr = warp.begin_instruction()
        else:
            instr = warp.trace.instructions[warp.pc]
        transactions = instr.transactions
        warp.tx_issued = tx + 1
        self._start_transaction(warp, transactions[tx], instr.is_write, grant_time)
        if warp.tx_issued < len(transactions):
            # Divergent instruction: remaining transactions re-arbitrate,
            # each occupying an issue slot.
            self.issue_port.request(warp, warp.grant_cb)

    # ------------------------------------------------------------------ #
    # Translation path
    # ------------------------------------------------------------------ #
    def _start_transaction(
        self, warp: WarpRuntime, vaddr: int, is_write: bool, now: float
    ) -> None:
        vpn = vaddr >> self._page_shift
        hw_tb_id = warp.tb.hw_tb_id
        if self.tlb_trace is not None:
            self.tlb_trace.append((warp.tb.trace.tb_index, vpn))
        ppn, sets_probed = self._probe(vpn, hw_tb_id)
        if self._note_outcome is not None:
            self._note_outcome(warp, ppn is not None)
        lookup_done = now + self._probe_latency(sets_probed)
        if ppn is not None:
            paddr = (ppn << self._page_shift) | (vaddr & self._page_mask)
            self._data_access(warp, paddr, is_write, lookup_done)
            return
        waiters = self._pending.get(vpn)
        if waiters is not None:
            waiters.append((warp, vaddr, is_write, hw_tb_id, now))
            self._merged.value += 1
            return
        self._pending[vpn] = [(warp, vaddr, is_write, hw_tb_id, now)]
        self._translations_sent.value += 1
        arrival_at_l2 = self.memory.noc.traverse(self.sm_id, lookup_done)
        self.translation.translate(vpn, arrival_at_l2, self._translation_reply)

    def _translation_reply(self, vpn: int, ppn: int, level: str) -> None:
        back_at_sm = self._queue.now + self.memory.noc.traversal_latency
        self._post(back_at_sm, self._translation_filled, vpn, ppn)

    def _translation_filled(self, vpn: int, ppn: int) -> None:
        now = self._queue.now
        tracer = self._tracer
        waiters = self._pending.pop(vpn, ())
        # a lone waiter (the common case) needs no set of filled TBs
        filled_for = set() if len(waiters) > 1 else None
        for warp, vaddr, is_write, hw_tb_id, miss_time in waiters:
            # Fill once per requesting TB: under TB-id partitioning each
            # TB's fill lands in its own set(s) (the paper's "redundant
            # entries" effect); under VPN indexing later fills refresh.
            if filled_for is None:
                self._insert(vpn, ppn, hw_tb_id)
            elif hw_tb_id not in filled_for:
                self._insert(vpn, ppn, hw_tb_id)
                filled_for.add(hw_tb_id)
            if tracer is not None:
                tracer.complete(
                    CAT_WARP, "tlb_stall", miss_time, now - miss_time,
                    self._stall_track,
                    {"tb": warp.tb.trace.tb_index, "vpn": vpn},
                )
            paddr = (ppn << self._page_shift) | (vaddr & self._page_mask)
            self._data_access(warp, paddr, is_write, now)

    # ------------------------------------------------------------------ #
    # Data path and retirement
    # ------------------------------------------------------------------ #
    def _data_access(
        self, warp: WarpRuntime, paddr: int, is_write: bool, now: float
    ) -> None:
        if now > self._queue.now:
            self._post(
                now, self.memory.access, paddr, now, warp.complete_cb, is_write
            )
        else:
            self.memory.access(paddr, now, warp.complete_cb, is_write)

    def _transaction_complete(self, warp: WarpRuntime) -> None:
        if not warp.transaction_done():
            return
        now = self._queue.now
        if warp.done:
            if warp.tb.warp_finished():
                self._finish_tb(warp.tb)
            return
        gap = warp.current_instruction().compute_gap
        warp.ready_time = now + gap
        self._schedule_ready(warp)

    # ------------------------------------------------------------------ #
    # Status reporting (feeds the scheduler's TLB status table, §IV-A)
    # ------------------------------------------------------------------ #
    @property
    def l1_tlb_hits(self) -> int:
        return self.l1_tlb.hits

    @property
    def l1_tlb_accesses(self) -> int:
        return self.l1_tlb.accesses
