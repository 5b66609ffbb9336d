"""Multi-tenant MIG-style co-scheduling, per-tenant translation, and
isolation metrics (DESIGN.md §10).

Quickstart::

    from repro.tenancy import TenancySpec, PartitionMode, build_tenant_gpu
    from repro.experiments.configs import get_config

    spec = TenancySpec(mix=("bfs", "gemm"), mode=PartitionMode.SUB_ENTRY)
    machine = build_tenant_gpu(spec, get_config("baseline"))
    result = machine.run_tenants()
    for t in result.tenants:
        print(t.benchmark, t.ipc, t.l1_tlb_hit_rate)
    print(result.fairness_index, result.cross_tenant_evictions)

``build_tenant_gpu`` returns a :class:`TenantMachine`: a plain
:class:`~repro.arch.gpu.GPU` (``machine.gpu``) with one dispatch lane
per tenant, and the per-tenant split of its results.
"""

from .compose import compose_tenants, relocate_kernel
from .machine import TenantMachine, build_tenant_gpu
from .memory import TenantAffinityMemory
from .metrics import TenancyResult, TenantMetrics, jain_fairness
from .router import ASIDRouter
from .tenant import (
    ADDRESS_SPACE_BITS,
    PARTITION_MODES,
    PPN_TAG_SHIFT,
    PartitionMode,
    TenancySpec,
    Tenant,
    expand_mix,
    parse_partition_mode,
    vpn_tag_shift,
)
from .tlbs import TenantAccounting

__all__ = [
    "ADDRESS_SPACE_BITS",
    "ASIDRouter",
    "PARTITION_MODES",
    "PPN_TAG_SHIFT",
    "PartitionMode",
    "TenancyResult",
    "TenancySpec",
    "Tenant",
    "TenantAccounting",
    "TenantAffinityMemory",
    "TenantMachine",
    "TenantMetrics",
    "build_tenant_gpu",
    "compose_tenants",
    "expand_mix",
    "jain_fairness",
    "parse_partition_mode",
    "relocate_kernel",
    "vpn_tag_shift",
]
