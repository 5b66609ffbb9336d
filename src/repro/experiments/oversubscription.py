"""Oversubscription study (the paper's motivating UVM scenario).

Table II's benchmarks have footprints up to 107 GB — far beyond GPU
memory — which is exactly why the paper targets UVM demand paging.  The
headline evaluation models the steady state (pages resident, far faults
free); this extension study caps GPU memory below each benchmark's
traced footprint and measures how eviction/re-fault traffic amplifies
the cost of poor translation behaviour, and whether the paper's design
still helps when far faults dominate.

The Mosaic column (arXiv 1804.11265) adds an allocation-policy angle:
under the same cap, region-grouped offset-preserving frames keep
contiguity-TLB entries coalescible across evict/re-fault churn, at the
cost of committing whole 2 MB-aligned regions.  The fragmentation
column reports that cost as committed-region bytes over resident-page
bytes (1.0 = no internal fragmentation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..arch.config import BASELINE_CONFIG, L1TLBMode, TBSchedulerKind
from ..translation.address import PAGE_2M, PAGE_4K
from ..workloads import traced_footprint_bytes
from .configs import resolve_spec
from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    collect_failures,
    failed_rows,
    geomean,
)

#: far-fault cost used for this study (the headline runs use 0 =
#: steady state); ~20 us at 1.4 GHz is a conservative migration cost,
#: scaled down to keep run times reasonable.
FAR_FAULT_LATENCY = 5000.0

#: the spec of the Mosaic column
MOSAIC_SPEC = "pagesize=mosaic,compress=contiguity"

#: benchmarks the study runs on (when the sweep includes them)
OVERSUB_BENCHMARKS = ("bfs", "nw", "atax", "mvt")


@dataclass
class OversubscriptionResult:
    #: normalized time of the capped run vs unlimited memory (baseline TLB)
    slowdown: Dict[str, float]
    #: far faults per 1000 accesses under the cap
    fault_rate: Dict[str, float]
    #: ours-vs-baseline time under the same cap
    ours_speedup: Dict[str, float]
    #: mosaic-allocation-vs-baseline time under the same cap
    mosaic_speedup: Dict[str, float] = field(default_factory=dict)
    #: fraction of committed mosaic-region bytes actually resident
    mosaic_utilization: Dict[str, float] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"{'benchmark':10s} {'capped/uncapped':>16s} "
            f"{'faults/kacc':>12s} {'ours speedup':>13s} "
            f"{'mosaic spdup':>13s} {'mosaic util':>12s}"
        ]
        for b in self.slowdown:
            lines.append(
                f"{b:10s} {self.slowdown[b]:16.3f} "
                f"{self.fault_rate[b]:12.2f} {self.ours_speedup[b]:13.3f} "
                f"{self.mosaic_speedup.get(b, float('nan')):13.3f} "
                f"{self.mosaic_utilization.get(b, float('nan')):12.3f}"
            )
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'geomean':10s} {geomean(self.slowdown.values()):16.3f} "
            f"{'':>12s} {geomean(self.ours_speedup.values()):13.3f} "
            f"{geomean(self.mosaic_speedup.values()):13.3f}"
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        slower = [b for b, s in self.slowdown.items() if s > 1.02]
        ours_gm = geomean(self.ours_speedup.values())
        utils = [u for u in self.mosaic_utilization.values() if u > 0]
        util_ok = bool(utils) and all(0.0 < u <= 1.0 for u in utils)
        return [
            ShapeCheck(
                "memory oversubscription slows execution (eviction + "
                "re-fault traffic)",
                len(slower) >= max(1, len(self.slowdown) // 2),
                f"slower: {slower}",
            ),
            ShapeCheck(
                "the proposed design does not lose its benefit under "
                "oversubscription",
                ours_gm >= 0.95,
                f"ours geomean speedup={ours_gm:.3f}",
            ),
            ShapeCheck(
                "mosaic commits only touched regions (utilization is a "
                "valid fraction, never over-commit)",
                util_ok,
                f"utilization: "
                + ", ".join(f"{u:.3f}" for u in utils),
            ),
        ]


def cells(
    runner: ExperimentRunner,
    capacity_fraction: float = 0.5,
    benchmarks=OVERSUB_BENCHMARKS,
) -> List[Cell]:
    """Four cells per benchmark, capped at a fraction of its traced
    footprint (so declaring them generates the kernels)."""
    cells = []
    for b in benchmarks:
        if b not in runner.benchmarks:
            continue
        footprint = traced_footprint_bytes(runner.kernel(b))
        cap = max(PAGE_4K * 64, int(footprint * capacity_fraction))
        uncapped_cfg = BASELINE_CONFIG.replace(
            far_fault_latency=FAR_FAULT_LATENCY
        )
        capped_cfg = uncapped_cfg.replace(gpu_memory_bytes=cap)
        ours_cfg = capped_cfg.replace(
            tb_scheduler=TBSchedulerKind.TLB_AWARE,
            l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING,
        )
        # spec-resolved mechanism config, then the study's cap knobs
        mosaic_cfg = resolve_spec(MOSAIC_SPEC).replace(
            far_fault_latency=FAR_FAULT_LATENCY, gpu_memory_bytes=cap
        )
        cells += [
            Cell(b, "oversub_uncapped", uncapped_cfg),
            Cell(b, "oversub_capped", capped_cfg),
            Cell(b, "oversub_ours", ours_cfg),
            Cell(b, "oversub_mosaic", mosaic_cfg),
        ]
    return cells


def compute(
    runner: ExperimentRunner,
    results: Results,
    benchmarks=OVERSUB_BENCHMARKS,
) -> OversubscriptionResult:
    slowdown = {}
    fault_rate = {}
    ours_speedup = {}
    mosaic_speedup = {}
    mosaic_utilization = {}
    failures: Dict[str, str] = {}
    mosaic_page_size = resolve_spec(MOSAIC_SPEC).page_size
    for b in benchmarks:
        if b not in runner.benchmarks:
            continue
        uncapped, capped, ours, mosaic = (
            results[b, f"oversub_{name}"]
            for name in ("uncapped", "capped", "ours", "mosaic")
        )
        if not collect_failures(failures, b, uncapped, capped, ours, mosaic):
            continue
        slowdown[b] = capped.cycles / uncapped.cycles
        fault_rate[b] = 1000.0 * capped.far_faults / max(
            capped.l1_tlb_accesses, 1
        )
        ours_speedup[b] = capped.cycles / ours.cycles
        mosaic_speedup[b] = capped.cycles / mosaic.cycles
        uvm_stats = mosaic.stats.get("uvm", {})
        live_regions = (
            uvm_stats.get("mosaic_regions_committed", 0)
            - uvm_stats.get("mosaic_regions_decommitted", 0)
        )
        resident = (
            uvm_stats.get("mosaic_pages_allocated", 0)
            - uvm_stats.get("mosaic_pages_released", 0)
        )
        committed_bytes = live_regions * PAGE_2M
        mosaic_utilization[b] = (
            resident * mosaic_page_size / committed_bytes
            if committed_bytes else 0.0
        )
    return OversubscriptionResult(
        slowdown, fault_rate, ours_speedup,
        mosaic_speedup, mosaic_utilization, failures,
    )
