"""Multi-tenant isolation & interference matrix (report extension).

The tenancy axis the paper's follow-up work opens (arXiv 2404.18361,
MIG-style co-residency): co-schedule 2+ kernels from the existing
generators under each partition mode and measure what co-residency does
to each tenant — per-tenant IPC, slowdown vs running the machine alone,
TLB cross-pollution, and Jain's fairness index.

Every cell — each partition mode's multi-tenant run and the solo
baselines — is an ordinary plan cell of the shared
:class:`~repro.experiments.runner.ExperimentRunner`, so tenancy cells
are memoized, checkpointed, supervised and run in parallel like every
other cell; ``repro run --tenants`` plans its cells here too.  A
multi-tenant cell carries its
:class:`~repro.tenancy.TenancySpec`, whose composition
:func:`repro.telemetry.manifest.config_hash` folds into the cell's
content key, so it can never collide with a single-tenant cache or
golden entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..arch.config import BASELINE_CONFIG, GPUConfig
from ..arch.gpu import RunResult
from ..tenancy import (
    PartitionMode,
    TenancyResult,
    TenancySpec,
)
from .runner import Cell, ExperimentRunner, Results, ShapeCheck

#: The report's tenant matrix: one heterogeneous mix (a TLB-thrashing
#: graph workload against a well-behaved dense kernel) across every
#: partition mode.  `repro run --tenants ...` plans any point of the
#: tenant-count x mode x mix space the same way: one multi-tenant cell
#: plus its solo baselines.
REPORT_MIX: Tuple[str, ...] = ("bfs", "gemm")


@dataclass
class TenancyExperimentResult:
    """Per-mode tenancy results for the report table."""

    mix: Tuple[str, ...]
    results: Dict[str, TenancyResult]
    solo_cycles: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)
    scale: str = "small"

    def format_table(self) -> str:
        lines = [
            f"tenants: {' + '.join(self.mix)}",
            f"{'mode':12s} {'tenant':10s} {'ipc':>8s} {'slowdown':>9s} "
            f"{'l1 hit':>7s} {'fairness':>9s} {'x-evict':>8s}",
        ]
        for mode, result in self.results.items():
            for t in result.tenants:
                hit = t.l1_tlb_hit_rate
                lines.append(
                    f"{mode:12s} {t.benchmark:10s} {t.ipc:8.4f} "
                    f"{(t.slowdown if t.slowdown is not None else float('nan')):9.3f} "
                    f"{(hit if hit is not None else float('nan')):7.3f} "
                    f"{result.fairness_index:9.3f} "
                    f"{result.cross_tenant_evictions:8d}"
                )
        for mode, reason in sorted(self.failures.items()):
            lines.append(f"{mode:12s} FAILED({reason})")
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        checks: List[ShapeCheck] = []
        exclusive = self.results.get(PartitionMode.EXCLUSIVE.value)
        shared = self.results.get(PartitionMode.SHARED_TLB.value)
        sub = self.results.get(PartitionMode.SUB_ENTRY.value)
        if exclusive is not None:
            checks.append(
                ShapeCheck(
                    "exclusive partitioning has zero cross-tenant evictions",
                    exclusive.cross_tenant_evictions == 0,
                    f"x-evict={exclusive.cross_tenant_evictions}",
                )
            )
        if shared is not None and self.scale != "micro":
            # micro footprints fit the shared L2 TLB without conflict;
            # the pollution signal only appears at calibrated scales
            checks.append(
                ShapeCheck(
                    "shared-TLB co-residency causes cross-tenant evictions",
                    shared.cross_tenant_evictions > 0,
                    f"x-evict={shared.cross_tenant_evictions}",
                )
            )
        if shared is not None and sub is not None:
            checks.append(
                ShapeCheck(
                    "sub-entry sharing fills without evicting "
                    "(arXiv 2404.18361 mechanism active)",
                    sub.combined.stats.get("l2_tlb", {}).get(
                        "sub_entry_fills", 0
                    ) > 0,
                    "l2 sub-entry fills="
                    f"{sub.combined.stats.get('l2_tlb', {}).get('sub_entry_fills', 0)}",
                )
            )
        for mode, result in self.results.items():
            slowdowns = [
                t.slowdown for t in result.tenants if t.slowdown is not None
            ]
            checks.append(
                ShapeCheck(
                    f"{mode}: co-resident tenants never finish faster than "
                    "their solo runs",
                    all(s >= 0.999 for s in slowdowns),
                    "slowdowns=" + ",".join(f"{s:.3f}" for s in slowdowns),
                )
            )
            fairness = result.fairness_index
            checks.append(
                ShapeCheck(
                    f"{mode}: Jain fairness within (0, 1]",
                    0.0 < fairness <= 1.0 + 1e-9,
                    f"J={fairness:.3f}",
                )
            )
        checks.append(
            ShapeCheck(
                "all partition modes produced a result",
                not self.failures,
                ",".join(sorted(self.failures)) or "ok",
            )
        )
        return checks


def _mode_tag(mode: PartitionMode) -> str:
    return f"tenancy_{mode.value}"


def _tenancy_cell(spec: TenancySpec, config: GPUConfig) -> Cell:
    """The multi-tenant cell of ``spec`` (``repro run --tenants`` plans
    it too)."""
    return Cell("+".join(spec.mix), _mode_tag(spec.mode), config, tenancy=spec)


def cells(
    runner: ExperimentRunner,
    config: GPUConfig = BASELINE_CONFIG,
    mix: Tuple[str, ...] = REPORT_MIX,
) -> List[Cell]:
    """The solo baselines, then one multi-tenant cell per mode."""
    solos = [Cell(b, "baseline", config) for b in dict.fromkeys(mix)]
    return solos + [
        _tenancy_cell(
            TenancySpec(
                mix=mix, mode=mode, scale=runner.scale, seed=runner.seed
            ),
            config,
        )
        for mode in PartitionMode
    ]


def compute(
    runner: ExperimentRunner,
    results: Results,
    mix: Tuple[str, ...] = REPORT_MIX,
) -> TenancyExperimentResult:
    solo_cycles = {
        b: results[b, "baseline"].cycles for b in dict.fromkeys(mix)
    }
    by_mode: Dict[str, TenancyResult] = {}
    failures: Dict[str, str] = {}
    for mode in PartitionMode:
        result = results["+".join(mix), _mode_tag(mode)]
        if isinstance(result, RunResult):  # a FAILED placeholder
            failures[mode.value] = result.failure
            continue
        result.apply_solo_baselines(solo_cycles)
        by_mode[mode.value] = result
    return TenancyExperimentResult(
        mix=mix,
        results=by_mode,
        solo_cycles=solo_cycles,
        failures=failures,
        scale=runner.scale,
    )
