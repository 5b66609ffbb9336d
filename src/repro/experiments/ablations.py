"""Ablations beyond the paper's headline results (DESIGN.md §5).

* sharing-policy ablation — the paper ships a 1-bit adjacent-sharing
  flag and discusses (but defers) counter+threshold and all-to-all
  variants (§IV-B); this experiment runs all three;
* scheduler ablation — RR vs TLB-aware across the L1 TLB modes;
* TLB-geometry sweep — entries × associativity under baseline indexing
  (the scalability argument of §III-B);
* warp-granularity reuse — the conclusion's future-work direction:
  how much intra-TB reuse is already intra-warp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..arch.config import (
    BASELINE_CONFIG,
    L1TLBMode,
    SharingPolicyKind,
    TBSchedulerKind,
    WarpSchedulerKind,
)
from ..characterization import warp_reuse_summary
from ..engine.errors import SimulationError, classify
from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    collect_failures,
    failed_rows,
    geomean,
    named_cell,
)


@dataclass
class SharingAblationResult:
    #: normalized time per benchmark per sharing policy
    times: Dict[str, Dict[str, float]]
    hits: Dict[str, Dict[str, float]]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        policies = [p.value for p in SharingPolicyKind]
        lines = [f"{'benchmark':10s} " + " ".join(f"{p:>11s}" for p in policies)]
        for b in self.times:
            lines.append(
                f"{b:10s} " + " ".join(
                    f"{self.times[b][p]:11.3f}" for p in policies
                )
            )
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'geomean':10s} " + " ".join(
                f"{geomean([self.times[b][p] for b in self.times]):11.3f}"
                for p in policies
            )
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        one_bit = geomean(
            [self.times[b]["one_bit"] for b in self.times]
        )
        counter = geomean(
            [self.times[b]["counter"] for b in self.times]
        )
        all2all = geomean(
            [self.times[b]["all_to_all"] for b in self.times]
        )
        return [
            ShapeCheck(
                "the 1-bit flag is good enough: counter+threshold does not "
                "beat it decisively (paper §IV-B)",
                counter > one_bit - 0.03,
                f"one_bit={one_bit:.3f} counter={counter:.3f}",
            ),
            ShapeCheck(
                "all-to-all sharing gives no decisive win to justify its "
                "bookkeeping (paper §IV-B)",
                all2all > one_bit - 0.05,
                f"one_bit={one_bit:.3f} all_to_all={all2all:.3f}",
            ),
        ]


def sharing_ablation_cells(runner: ExperimentRunner) -> List[Cell]:
    cells = []
    for b in runner.benchmarks:
        cells.append(named_cell(b, "baseline"))
        for policy in SharingPolicyKind:
            config = BASELINE_CONFIG.replace(
                tb_scheduler=TBSchedulerKind.TLB_AWARE,
                l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING,
                sharing_policy=policy,
            )
            cells.append(Cell(b, f"sharing_{policy.value}", config))
    return cells


def compute_sharing_ablation(
    runner: ExperimentRunner, results: Results
) -> SharingAblationResult:
    times: Dict[str, Dict[str, float]] = {}
    hits: Dict[str, Dict[str, float]] = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        base = results[b, "baseline"]
        if not collect_failures(failures, b, base):
            continue
        per_policy = {
            policy.value: results[b, f"sharing_{policy.value}"]
            for policy in SharingPolicyKind
        }
        if not collect_failures(failures, b, *per_policy.values()):
            continue
        times[b] = {
            p: r.cycles / base.cycles for p, r in per_policy.items()
        }
        hits[b] = {
            p: r.avg_l1_tlb_hit_rate for p, r in per_policy.items()
        }
    return SharingAblationResult(times, hits, failures)


@dataclass
class GeometrySweepResult:
    #: mean hit rate across benchmarks per (entries, assoc)
    hit_rates: Dict[tuple, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [f"{'geometry':>10s} {'mean L1 hit':>12s}"]
        for (entries, assoc), hit in sorted(self.hit_rates.items()):
            lines.append(f"{entries:5d}x{assoc:<4d} {hit:12.3f}")
        lines.extend(failed_rows(self.failures))
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        ordered = [self.hit_rates[k] for k in sorted(self.hit_rates)]
        monotone = all(b >= a - 0.02 for a, b in zip(ordered, ordered[1:]))
        top = max(self.hit_rates.values())
        floor = min(self.hit_rates.values())
        return [
            ShapeCheck(
                "hit rate grows with TLB capacity (capacity-bound misses)",
                monotone and top > floor,
                f"{floor:.3f} -> {top:.3f}",
            ),
            ShapeCheck(
                "even 8x capacity does not fully solve thrashing "
                "(why the paper avoids scaling capacity)",
                top < 0.95,
                f"best={top:.3f}",
            ),
        ]


GEOMETRIES = ((64, 4), (128, 4), (256, 4), (512, 8))


def geometry_sweep_cells(
    runner: ExperimentRunner, geometries=GEOMETRIES
) -> List[Cell]:
    return [
        Cell(
            b,
            f"geo_{entries}x{assoc}",
            BASELINE_CONFIG.replace(
                l1_tlb_entries=entries, l1_tlb_assoc=assoc
            ),
        )
        for entries, assoc in geometries
        for b in runner.benchmarks
    ]


def compute_geometry_sweep(
    runner: ExperimentRunner, results: Results, geometries=GEOMETRIES
) -> GeometrySweepResult:
    hit_rates = {}
    failures: Dict[str, str] = {}
    for entries, assoc in geometries:
        rates = []
        for b in runner.benchmarks:
            result = results[b, f"geo_{entries}x{assoc}"]
            if not collect_failures(failures, b, result):
                continue
            rates.append(result.avg_l1_tlb_hit_rate)
        if rates:
            hit_rates[(entries, assoc)] = sum(rates) / len(rates)
    return GeometrySweepResult(hit_rates, failures)


@dataclass
class WarpReuseResult:
    #: per-benchmark share of intra-TB reuse that is intra-warp
    warp_share: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [f"{'benchmark':10s} {'intra-warp share':>17s}"]
        for b, share in self.warp_share.items():
            lines.append(f"{b:10s} {share:17.2f}")
        lines.extend(failed_rows(self.failures))
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        mean = (
            sum(self.warp_share.values()) / len(self.warp_share)
            if self.warp_share
            else 0.0
        )
        return [
            ShapeCheck(
                "a substantial share of intra-TB reuse is intra-warp "
                "(supports the paper's warp-scheduling future work)",
                mean > 0.3,
                f"mean={mean:.2f}",
            )
        ]


def run_warp_reuse(runner: ExperimentRunner) -> WarpReuseResult:
    share: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        try:
            share[b] = warp_reuse_summary(
                runner.kernel(b)
            ).warp_share_of_tb_reuse
        except SimulationError as exc:
            if runner.strict:
                raise
            failures[b] = classify(exc)
    return WarpReuseResult(share, failures)


@dataclass
class WarpSchedulerAblationResult:
    """GTO vs translation-aware warp issue (the future-work policy)."""

    #: normalized time of translation-aware issue vs GTO, per benchmark
    times: Dict[str, float]
    hits_gto: Dict[str, float]
    hits_aware: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"{'benchmark':10s} {'GTO hit':>8s} {'aware hit':>10s} "
            f"{'aware/GTO time':>15s}"
        ]
        for b in self.times:
            lines.append(
                f"{b:10s} {self.hits_gto[b]:8.3f} {self.hits_aware[b]:10.3f} "
                f"{self.times[b]:15.3f}"
            )
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'geomean':10s} {'':8s} {'':10s} "
            f"{geomean(self.times.values()):15.3f}"
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        gm = geomean(self.times.values())
        return [
            ShapeCheck(
                "translation-aware warp issue is at worst neutral "
                "(supporting the paper's claim that warp scheduling is "
                "complementary, left to future work)",
                gm <= 1.03,
                f"geomean={gm:.3f}",
            )
        ]


def warp_scheduler_cells(runner: ExperimentRunner) -> List[Cell]:
    aware_cfg = BASELINE_CONFIG.replace(
        warp_scheduler=WarpSchedulerKind.TRANSLATION_AWARE
    )
    return [
        cell
        for b in runner.benchmarks
        for cell in (named_cell(b, "baseline"), Cell(b, "warp_aware", aware_cfg))
    ]


def compute_warp_scheduler_ablation(
    runner: ExperimentRunner, results: Results
) -> WarpSchedulerAblationResult:
    times: Dict[str, float] = {}
    hits_gto: Dict[str, float] = {}
    hits_aware: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        base = results[b, "baseline"]
        aware = results[b, "warp_aware"]
        if not collect_failures(failures, b, base, aware):
            continue
        times[b] = aware.cycles / base.cycles
        hits_gto[b] = base.avg_l1_tlb_hit_rate
        hits_aware[b] = aware.avg_l1_tlb_hit_rate
    return WarpSchedulerAblationResult(times, hits_gto, hits_aware, failures)
