"""Multi-tenant machine assembly and the per-tenant metric split.

``build_tenant_gpu`` runs the one machine assembly of
:mod:`repro.system` and passes it the tenant-aware parts the partition
mode demands:

========================  =====================  =====================
part                      exclusive              shared-tlb / sub-entry
========================  =====================  =====================
dispatch lanes            per-tenant SM slices   every SM, one shared
                          and schedulers         scheduler
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

The machine is a plain :class:`~repro.arch.gpu.GPU` with one dispatch
lane per tenant; its one fill loop round-robins across the lanes, and
with one tenant it is the single-tenant loop.  :class:`TenantMachine`
holds that GPU with the tenants, router and mode, runs the tenants
through :meth:`GPU.run <repro.arch.gpu.GPU.run>` and splits the
combined result into per-tenant metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

from ..arch.config import BASELINE_CONFIG, GPUConfig
from ..arch.gpu import GPU, KernelMix, RunResult
from ..core.factory import build_l1_tlb
from ..core.partitioned_tlb import TenantIndexPolicy
from ..core.tb_scheduler import make_scheduler
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


@dataclass(eq=False)
class TenantMachine:
    """A plain :class:`~repro.arch.gpu.GPU` whose dispatch lanes are the
    tenants, with the router and partition mode that built it; splits a
    run's combined result into per-tenant metrics."""

    gpu: GPU
    tenants: List[Tenant]
    router: ASIDRouter
    mode: PartitionMode

    def run_tenants(
        self, occupancy_override: Optional[int] = None
    ) -> TenancyResult:
        """Launch every tenant, run to completion, split the metrics."""
        combined = self.gpu.run(
            KernelMix([t.kernel for t in self.tenants]), occupancy_override
        )
        return self._split_metrics(combined)

    def _tenant_l1_tallies(self, tid: int) -> tuple:
        """(hits, accesses) attributable to tenant ``tid``'s L1 probes."""
        if self.mode is PartitionMode.EXCLUSIVE:
            sms = self.gpu.lanes[tid].sms
            return (
                sum(sm.l1_tlb_hits for sm in sms),
                sum(sm.l1_tlb_accesses for sm in sms),
            )
        hits = accesses = 0
        for sm in self.gpu.sms:
            hook = sm.l1_tlb.hook
            if isinstance(hook, TenantAccounting):
                hits += hook.tenant_hits[tid]
                accesses += hook.tenant_accesses[tid]
        return hits, accesses

    def cross_tenant_evictions(self) -> int:
        """Total cross-tenant displacements across every shared TLB."""
        gpu = self.gpu
        total = 0
        for tlb in [gpu.l2_tlb] + [sm.l1_tlb for sm in gpu.sms]:
            if isinstance(tlb.hook, TenantAccounting):
                total += tlb.hook.cross_tenant_evictions
        return total

    def _split_metrics(self, combined: RunResult) -> TenancyResult:
        per_tenant = []
        for tid, tenant in enumerate(self.tenants):
            finish = self.gpu.lanes[tid].finish
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
            stats = self.gpu.sim.stats
            group = stats.group("tenancy")
            group.counter("cross_tenant_evictions").value = (
                result.cross_tenant_evictions
            )
            group.counter("fairness_millis").value = int(
                result.fairness_index * 1000
            )
            combined.stats = stats.dump()
        return result


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
) -> TenantMachine:
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
    num_sms = config.num_sms
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
        # every tenant competes for every SM through one scheduler
        shared = make_scheduler(config.tb_scheduler, num_sms)
        lanes = [(range(num_sms), shared)] * n
    else:
        if n > num_sms:
            raise ConfigError(
                f"{n} exclusive tenants need at least one SM each; "
                f"GPU has only {num_sms}"
            )
        # tenant t owns SMs [t*S//n, (t+1)*S//n) and its own scheduler,
        # sized for the whole GPU (the status table indexes by sm_id)
        lanes = [
            (
                range(t * num_sms // n, (t + 1) * num_sms // n),
                make_scheduler(config.tb_scheduler, num_sms),
            )
            for t in range(n)
        ]
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
        walked=router,
        # evictions shoot down only the evicting tenant's entries: its
        # local VPNs carry its ASID tag in every TLB
        address_spaces=[(uvm, asid << v_shift) for asid, uvm in enumerate(uvms)],
        l2_tlb=l2_tlb,
        l1_tlb=l1_tlb,
        memory=memory,
        lanes=lanes,
    )
    machine = TenantMachine(gpu, tenants, router, mode)
    if sim.sanitizer is not None:
        from ..sanitizer import TenantIsolationChecker

        sim.sanitizer.register(TenantIsolationChecker(machine))
    return machine
