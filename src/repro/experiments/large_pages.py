"""§V large-page study — 2 MB pages instead of 4 KB.

Claims reproduced here:

* huge pages significantly improve L1 TLB hit rates, especially for the
  matrix-centric benchmarks (gemm, mvt);
* our optimizations still help on top of huge pages, but the additional
  saving is much smaller than at 4 KB (paper: 2.13% vs 12.5%);
* huge pages cost internal fragmentation (quantified here per
  benchmark, the reason the paper keeps 4 KB as the default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..translation.pagesize import fragmentation_from_addresses
from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    arithmetic_mean,
    collect_failures,
    failed_rows,
    geomean,
    named_cell,
)

CONFIG_NAMES = ("baseline", "huge_baseline", "huge_ours")


@dataclass
class LargePageResult:
    hit_4k: Dict[str, float]
    hit_2m: Dict[str, float]
    #: ours-on-2MB time normalized to baseline-on-2MB
    ours_2m_time: Dict[str, float]
    #: huge-page internal fragmentation (utilization of committed bytes)
    utilization: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"{'benchmark':10s} {'hit@4K':>7s} {'hit@2M':>7s} "
            f"{'ours@2M time':>13s} {'2M util':>8s}"
        ]
        for b in self.hit_4k:
            lines.append(
                f"{b:10s} {self.hit_4k[b]:7.3f} {self.hit_2m[b]:7.3f} "
                f"{self.ours_2m_time[b]:13.3f} {self.utilization[b]:8.3f}"
            )
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'mean/geo':10s} {arithmetic_mean(self.hit_4k.values()):7.3f} "
            f"{arithmetic_mean(self.hit_2m.values()):7.3f} "
            f"{geomean(self.ours_2m_time.values()):13.3f} "
            f"{arithmetic_mean(self.utilization.values()):8.3f}"
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        mean4k = arithmetic_mean(self.hit_4k.values())
        mean2m = arithmetic_mean(self.hit_2m.values())
        matrix_better = [
            b for b in ("gemm", "mvt")
            if b in self.hit_2m and self.hit_2m[b] > self.hit_4k[b] + 0.02
        ]
        ours_gm = geomean(self.ours_2m_time.values())
        frag = [b for b, u in self.utilization.items() if u < 0.9]
        return [
            ShapeCheck(
                "huge pages significantly improve L1 TLB hit rates",
                mean2m > mean4k + 0.1,
                f"mean 4K={mean4k:.3f} 2M={mean2m:.3f}",
            ),
            ShapeCheck(
                "matrix-centric benchmarks (gemm, mvt) benefit most",
                len(matrix_better) >= 1,
                f"improved: {matrix_better}",
            ),
            ShapeCheck(
                "our approach still helps with huge pages, but less than "
                "at 4 KB (paper 2.13%)",
                0.9 <= ours_gm <= 1.005,
                f"geomean={ours_gm:.3f}",
            ),
            ShapeCheck(
                "huge pages suffer internal fragmentation on sparse "
                "benchmarks",
                len(frag) >= 2,
                f"utilization<0.9: {frag}",
            ),
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    return [named_cell(b, c) for b in runner.benchmarks for c in CONFIG_NAMES]


def compute(runner: ExperimentRunner, results: Results) -> LargePageResult:
    hit4 = {}
    hit2 = {}
    ours_time = {}
    util = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        base, huge_base, huge_ours = (results[b, c] for c in CONFIG_NAMES)
        if not collect_failures(failures, b, base, huge_base, huge_ours):
            continue
        hit4[b] = base.avg_l1_tlb_hit_rate
        hit2[b] = huge_base.avg_l1_tlb_hit_rate
        ours_time[b] = huge_ours.cycles / huge_base.cycles
        report = fragmentation_from_addresses(runner.kernel(b).addresses())
        util[b] = report.utilization
    return LargePageResult(hit4, hit2, ours_time, util, failures)
