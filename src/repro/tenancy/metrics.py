"""Per-tenant isolation and interference metrics.

A multi-tenant run produces one combined
:class:`~repro.arch.gpu.RunResult` (the machine-level view, serialized
exactly like a single-tenant result) plus a :class:`TenancyResult`
wrapper holding per-tenant breakdowns:

* **IPC proxy** — the simulator is memory-trace-driven, so "instructions"
  are memory transactions: ``transactions / cycles-to-finish``.
* **slowdown** — tenant cycles co-resident vs the same kernel running
  the machine alone (ANTT's per-tenant term); computed by the experiment
  layer, which owns the solo baselines.
* **TLB cross-pollution** — per-tenant L1 hit rates plus the shared
  TLBs' ``cross_tenant_evictions``.
* **fairness** — Jain's index over per-tenant IPC:
  ``J = (Σx)² / (n·Σx²)``; 1.0 is perfectly fair, ``1/n`` is one tenant
  monopolizing the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.gpu import RunResult


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index; 0.0 for an empty/zero vector."""
    xs = [v for v in values if v is not None]
    if not xs:
        return 0.0
    square_sum = sum(x * x for x in xs)
    if square_sum == 0.0:
        return 0.0
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


@dataclass
class TenantMetrics:
    """One tenant's share of a multi-tenant run."""

    asid: int
    benchmark: str
    tbs: int
    transactions: int
    #: cycle the tenant's last TB completed (its makespan in the shared run)
    finish_cycle: float
    ipc: float
    l1_tlb_hits: int
    l1_tlb_accesses: int
    far_faults: int
    #: shared cycles / solo cycles; ``None`` until the experiment layer
    #: supplies the solo baseline
    slowdown: Optional[float] = None

    @property
    def l1_tlb_hit_rate(self) -> Optional[float]:
        if self.l1_tlb_accesses == 0:
            return None
        return self.l1_tlb_hits / self.l1_tlb_accesses

    def to_dict(self) -> Dict:
        return {
            "asid": self.asid,
            "benchmark": self.benchmark,
            "tbs": self.tbs,
            "transactions": self.transactions,
            "finish_cycle": self.finish_cycle,
            "ipc": self.ipc,
            "l1_tlb_hits": self.l1_tlb_hits,
            "l1_tlb_accesses": self.l1_tlb_accesses,
            "far_faults": self.far_faults,
            "slowdown": self.slowdown,
        }


@dataclass
class TenancyResult:
    """A multi-tenant run: combined machine result + per-tenant split."""

    mode: str
    combined: RunResult
    tenants: List[TenantMetrics] = field(default_factory=list)
    #: insertions that displaced another tenant's entry/sub-entries,
    #: summed over every shared TLB in the machine (0 under exclusive
    #: partitioning — enforced by the ``tenant.cross_tlb`` invariant)
    cross_tenant_evictions: int = 0

    @property
    def fairness_index(self) -> float:
        return jain_fairness([t.ipc for t in self.tenants])

    def apply_solo_baselines(self, solo_cycles: Dict[str, float]) -> None:
        """Fill per-tenant slowdowns from solo-run makespans keyed by
        benchmark name."""
        for tenant in self.tenants:
            solo = solo_cycles.get(tenant.benchmark)
            if solo and solo > 0 and tenant.finish_cycle > 0:
                tenant.slowdown = tenant.finish_cycle / solo

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "combined": self.combined.to_dict(),
            "tenants": [t.to_dict() for t in self.tenants],
            "cross_tenant_evictions": self.cross_tenant_evictions,
            "fairness_index": self.fairness_index,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TenancyResult":
        """Inverse of :meth:`to_dict` (``fairness_index`` is derived)."""
        return cls(
            mode=data["mode"],
            combined=RunResult.from_dict(data["combined"]),
            tenants=[TenantMetrics(**t) for t in data["tenants"]],
            cross_tenant_evictions=data["cross_tenant_evictions"],
        )
