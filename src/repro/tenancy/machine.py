"""Multi-tenant machine assembly and the co-scheduling dispatch loop.

``build_tenant_gpu`` runs the one machine assembly of
:mod:`repro.system` and passes it the tenant-aware parts the partition
mode demands:

========================  =====================  =====================
part                      exclusive              shared-tlb / sub-entry
========================  =====================  =====================
TB scheduler              per-tenant SM slices   one shared policy
L1 TLB                    stock (slice-private)  ASID-tagged / sub-entry
L2 TLB                    tenant-sliced sets*    ASID-tagged / sub-entry
memory partitions         NPS-style affinity*    line interleave
page tables               private per tenant     private per tenant
========================  =====================  =====================

(* with one tenant the stock part is used unchanged — the one-tenant
exclusive machine is assembled from exactly the same classes as
:func:`repro.system.build_gpu`, which is what makes its results
bit-identical to the single-tenant path.)

The shared modes' L1 TLBs are the stock TLB (or sub-entry format) with
:class:`~repro.tenancy.tlbs.TenantAccounting` as the eviction hook, so
they cannot honour a config's own L1 TLB organization: a config whose
L1 TLB mode, compression, replacement or dead-entry filter differs from
the baseline's is refused with a ``ConfigError`` before anything runs.

:class:`MultiTenantGPU` runs the composed tenants through
:meth:`GPU.run <repro.arch.gpu.GPU.run>`; it overrides only the launch
preparation (per-tenant queues and SM occupancies), the fill
(round-robin across tenants' pending TB queues, asking the tenant-aware
scheduler for a placement *for that tenant*), the per-tenant finish
bookkeeping and the metric split.  With one tenant the call sequence
collapses to the single-tenant loop exactly.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import List, Optional

from ..arch.config import BASELINE_CONFIG, GPUConfig
from ..arch.gpu import GPU, RunResult
from ..arch.sm import StreamingMultiprocessor
from ..core.factory import build_l1_tlb
from ..core.partitioned_tlb import TenantIndexPolicy
from ..core.tb_scheduler import ExclusiveTenantScheduler, SharedTenantScheduler
from ..engine.errors import ConfigError
from ..engine.simulator import Simulator
from ..memory.partition import PartitionedMemory
from ..system import _assemble
from ..translation.pagesize import geometry_for
from ..translation.tlb import SetAssociativeTLB, SubEntrySharedTLB
from ..translation.uvm import UVMManager
from .compose import compose_tenants
from .memory import TenantAffinityMemory
from .metrics import TenancyResult, TenantMetrics
from .router import ASIDRouter
from .tenant import (
    PPN_TAG_SHIFT,
    PartitionMode,
    TenancySpec,
    Tenant,
    vpn_tag_shift,
)
from .tlbs import TenantAccounting


class _ComposedKernel:
    """The co-scheduled tenants as one kernel: the name and TB list that
    :meth:`GPU.run <repro.arch.gpu.GPU.run>` traces and collects."""

    __slots__ = ("name", "tbs")

    def __init__(self, tenants: List[Tenant]) -> None:
        self.name = "+".join(t.kernel.name for t in tenants)
        self.tbs = [trace for t in tenants for trace in t.kernel.tbs]


class MultiTenantGPU(GPU):
    """GPU whose dispatch loop co-schedules several tenants' TBs."""

    def __init__(
        self,
        sim: Simulator,
        config: GPUConfig,
        geometry,
        sms: List[StreamingMultiprocessor],
        scheduler,
        l2_tlb,
        walkers,
        partitions,
        tenants: List[Tenant],
        router: ASIDRouter,
        mode: PartitionMode,
    ) -> None:
        super().__init__(
            sim, config, geometry, sms, scheduler, l2_tlb, walkers, partitions
        )
        self.tenants = tenants
        self.router = router
        self.mode = mode
        self._tenant_pending: List[deque] = []
        self._tenant_remaining: List[int] = []
        self._tenant_finish: List[float] = []
        self._tb_tenant = {}
        self._rr_tenant = 0

    # ------------------------------------------------------------------ #
    # Launch / dispatch
    # ------------------------------------------------------------------ #
    def _prepare_launch(
        self, kernel, occupancy_override: Optional[int]
    ) -> None:
        """Queue every tenant's TBs and prepare the SMs.

        Exclusive mode prepares each tenant's SM slice with that
        kernel's own occupancy; the shared modes prepare every SM with
        the most restrictive tenant's occupancy (co-resident kernels
        split SM resources, so the tightest bound governs).
        """
        self._tenant_pending = [deque(t.kernel.tbs) for t in self.tenants]
        self._tenant_remaining = [t.num_tbs for t in self.tenants]
        self._tenant_finish = [self.sim.now] * len(self.tenants)
        self._tb_tenant = {
            id(trace): tid
            for tid, tenant in enumerate(self.tenants)
            for trace in tenant.kernel.tbs
        }
        self._rr_tenant = 0
        occupancies = []
        for tenant in self.tenants:
            occ = tenant.kernel.occupancy(self.config)
            if occupancy_override is not None:
                occ = min(occ, occupancy_override)
            occupancies.append(occ)
        if isinstance(self.scheduler, ExclusiveTenantScheduler):
            for tid in range(len(self.tenants)):
                for sm_id in self.scheduler.sm_slice(tid):
                    self.sms[sm_id].prepare_kernel(occupancies[tid])
        else:
            shared_occ = min(occupancies)
            for sm in self.sms:
                sm.prepare_kernel(shared_occ)

    def _fill_sms(self, now: float) -> None:
        """Round-robin across tenants with pending TBs; a tenant whose
        slice (or the shared pool) is full is skipped until a slot
        frees.  With one tenant this is the single-tenant fill loop."""
        n = len(self.tenants)
        tid = self._rr_tenant
        stalled = 0
        while stalled < n:
            pending = self._tenant_pending[tid]
            if not pending:
                tid = (tid + 1) % n
                stalled += 1
                continue
            sm = self.scheduler.select_sm_for(tid, self.sms)
            if sm is None:
                tid = (tid + 1) % n
                stalled += 1
                continue
            trace = pending.popleft()
            sm.dispatch_tb(trace, now, self._age)
            self._age += max(len(trace.warps), 1)
            stalled = 0
            tid = (tid + 1) % n
        self._rr_tenant = tid
        self._pending = self._tenant_pending[tid] if n == 1 else _AnyPending(
            self._tenant_pending
        )

    def _tb_finished(self, sm, tb) -> None:
        tid = self._tb_tenant[id(tb.trace)]
        self._tenant_remaining[tid] -= 1
        if self._tenant_remaining[tid] == 0:
            self._tenant_finish[tid] = self.sim.now
        super()._tb_finished(sm, tb)

    def _livelock_diagnostic(self) -> str:
        base = super()._livelock_diagnostic()
        per_tenant = ", ".join(
            f"t{tid}:{rem}" for tid, rem in enumerate(self._tenant_remaining)
        )
        return f"{base} | tenant TBs remaining [{per_tenant}]"

    # ------------------------------------------------------------------ #
    # Run + per-tenant result collection
    # ------------------------------------------------------------------ #
    def run_tenants(
        self, occupancy_override: Optional[int] = None
    ) -> TenancyResult:
        """Launch every tenant, run to completion, split the metrics."""
        combined = self.run(_ComposedKernel(self.tenants), occupancy_override)
        return self._split_metrics(combined)

    def _tenant_l1_tallies(self, tid: int) -> tuple:
        """(hits, accesses) attributable to tenant ``tid``'s L1 probes."""
        if isinstance(self.scheduler, ExclusiveTenantScheduler):
            sms = [self.sms[i] for i in self.scheduler.sm_slice(tid)]
            return (
                sum(sm.l1_tlb_hits for sm in sms),
                sum(sm.l1_tlb_accesses for sm in sms),
            )
        hits = accesses = 0
        for sm in self.sms:
            hook = sm.l1_tlb.hook
            if isinstance(hook, TenantAccounting):
                hits += hook.tenant_hits[tid]
                accesses += hook.tenant_accesses[tid]
        return hits, accesses

    def cross_tenant_evictions(self) -> int:
        """Total cross-tenant displacements across every shared TLB."""
        total = 0
        for tlb in [self.l2_tlb] + [sm.l1_tlb for sm in self.sms]:
            if isinstance(tlb.hook, TenantAccounting):
                total += tlb.hook.cross_tenant_evictions
        return total

    def _split_metrics(self, combined: RunResult) -> TenancyResult:
        per_tenant = []
        for tid, tenant in enumerate(self.tenants):
            finish = self._tenant_finish[tid]
            transactions = tenant.kernel.total_transactions()
            hits, accesses = self._tenant_l1_tallies(tid)
            per_tenant.append(
                TenantMetrics(
                    asid=tenant.asid,
                    benchmark=tenant.benchmark,
                    tbs=tenant.num_tbs,
                    transactions=transactions,
                    finish_cycle=finish,
                    ipc=transactions / finish if finish > 0 else 0.0,
                    l1_tlb_hits=hits,
                    l1_tlb_accesses=accesses,
                    far_faults=(
                        tenant.uvm.fault_count if tenant.uvm is not None else 0
                    ),
                )
            )
        result = TenancyResult(
            mode=self.mode.value,
            combined=combined,
            tenants=per_tenant,
            cross_tenant_evictions=self.cross_tenant_evictions(),
        )
        if len(self.tenants) > 1:
            # surface the isolation metrics through the stats registry /
            # telemetry dump — only in the genuinely multi-tenant case so
            # the one-tenant stats dump stays identical to single-tenant
            group = self.sim.stats.group("tenancy")
            group.counter("cross_tenant_evictions").value = (
                result.cross_tenant_evictions
            )
            group.counter("fairness_millis").value = int(
                result.fairness_index * 1000
            )
            combined.stats = self.sim.stats.dump()
        return result


class _AnyPending:
    """Truthiness/len view over all tenants' pending queues, so the base
    class's refill scheduling (``if self._pending``) keeps working."""

    __slots__ = ("_queues",)

    def __init__(self, queues: List[deque]) -> None:
        self._queues = queues

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def __bool__(self) -> bool:
        return any(self._queues)


#: L1 TLB fields the shared modes cannot honour: they build their own
#: tenant TLB (stock VPN index, per-page or sub-entry format, LRU)
_SHARED_MODE_FIXED_L1_FIELDS = (
    "l1_tlb_mode",
    "l1_tlb_compression",
    "l1_tlb_replacement",
    "l1_tlb_dead_entry",
)


def _check_shared_mode_config(mode: PartitionMode, config: GPUConfig) -> None:
    """Refuse a config whose L1 TLB a shared partition mode would drop."""
    if mode is PartitionMode.EXCLUSIVE:
        return
    for name in _SHARED_MODE_FIXED_L1_FIELDS:
        value = getattr(config, name)
        baseline = getattr(BASELINE_CONFIG, name)
        if value != baseline:
            raise ConfigError(
                f"partition mode {mode.value!r} builds its own shared L1 "
                f"TLB and cannot honour {name}="
                f"{getattr(value, 'value', value)!r} (baseline: "
                f"{getattr(baseline, 'value', baseline)!r}); only the "
                f"exclusive mode builds the config's L1 TLB"
            )


def build_tenant_gpu(
    spec: TenancySpec,
    config: GPUConfig,
    sim: Optional[Simulator] = None,
    record_tlb_trace: bool = False,
    tenants: Optional[List[Tenant]] = None,
) -> MultiTenantGPU:
    """Assemble a multi-tenant GPU for ``spec`` from the tenant parts.

    ``tenants`` overrides the composed workloads (tests use this to
    inject hand-built kernels); by default the spec's mix is composed
    through the workload registry.
    """
    _check_shared_mode_config(spec.mode, config)
    if sim is None:
        sim = Simulator()
    if tenants is None:
        tenants = compose_tenants(spec)
    n = len(tenants)
    mode = spec.mode
    geometry = geometry_for(config.page_size)
    v_shift = vpn_tag_shift(geometry.offset_bits)

    # Private translation per tenant, one router facing the walkers.
    per_tenant_memory = (
        config.gpu_memory_bytes // n
        if config.gpu_memory_bytes is not None
        else None
    )
    for tenant in tenants:
        tenant.uvm = UVMManager(
            geometry=geometry,
            policy=config.allocation_policy,
            far_fault_latency=config.far_fault_latency,
            gpu_memory_bytes=per_tenant_memory,
        )
    uvms = [tenant.uvm for tenant in tenants]
    router = ASIDRouter(uvms, v_shift)

    def shared_tlb(entries: int, assoc: int, latency: float, **parts):
        """A shared mode's TLB: ASID-tagged per-page entries
        (``shared-tlb``) or sub-entries, with tenant accounting."""
        hook = TenantAccounting(n, v_shift)
        if mode is PartitionMode.SUB_ENTRY:
            return SubEntrySharedTLB(
                entries, assoc, latency, v_shift, hook=hook, **parts
            )
        return SetAssociativeTLB(entries, assoc, latency, hook=hook, **parts)

    l2_geometry = (
        config.l2_tlb_entries, config.l2_tlb_assoc, config.l2_tlb_latency
    )
    l2_tlb = partial(SetAssociativeTLB, *l2_geometry)
    l1_tlb = partial(build_l1_tlb, config)
    memory = PartitionedMemory
    if mode is not PartitionMode.EXCLUSIVE:
        l2_tlb = partial(shared_tlb, *l2_geometry)
        l1_tlb = partial(
            shared_tlb,
            config.l1_tlb_entries, config.l1_tlb_assoc, config.l1_tlb_latency,
        )
        scheduler = SharedTenantScheduler(config.num_sms, config.tb_scheduler)
    else:
        scheduler = ExclusiveTenantScheduler(
            n, config.num_sms, config.tb_scheduler
        )
        if n > 1:
            # tenant-sliced L2 sets and NPS-style memory affinity; one
            # tenant keeps the stock parts, bit-identical wiring
            l2_tlb = partial(
                l2_tlb,
                policy=TenantIndexPolicy(
                    config.l2_tlb_entries // config.l2_tlb_assoc, n, v_shift
                ),
            )
            memory = partial(
                TenantAffinityMemory, n, PPN_TAG_SHIFT + geometry.offset_bits
            )
    gpu = _assemble(
        config,
        sim,
        record_tlb_trace,
        page_tables=router,
        # evictions shoot down only the evicting tenant's entries: its
        # local VPNs carry its ASID tag in every TLB
        address_spaces=[(uvm, asid << v_shift) for asid, uvm in enumerate(uvms)],
        l2_tlb=l2_tlb,
        l1_tlb=l1_tlb,
        memory=memory,
        scheduler=scheduler,
        machine=partial(MultiTenantGPU, tenants=tenants, router=router, mode=mode),
    )
    if sim.sanitizer is not None:
        from ..sanitizer import TenantIsolationChecker

        sim.sanitizer.register(TenantIsolationChecker(gpu))
    return gpu
