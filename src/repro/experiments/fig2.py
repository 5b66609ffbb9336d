"""Fig 2 — baseline L1 TLB hit rates at 64 vs 256 entries.

Paper claims reproduced here:
* most benchmarks suffer poor hit rates with the 64-entry L1 TLB;
* many benchmarks benefit from enlarging to 256 entries;
* ``nw`` stays low even at 256 entries (cold misses, irregularity);
* ``gemm`` is already high at 64 entries.
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


@dataclass
class Fig2Result:
    hit_64: Dict[str, float]
    hit_256: Dict[str, float]
    #: benchmarks whose cells failed (graceful degradation)
    failures: Dict[str, str] = field(default_factory=dict)

    def rows(self) -> List[tuple]:
        return [
            (b, self.hit_64[b], self.hit_256[b]) for b in self.hit_64
        ]

    def format_table(self) -> str:
        lines = [f"{'benchmark':10s} {'64-entry':>9s} {'256-entry':>10s}"]
        for b, h64, h256 in self.rows():
            lines.append(f"{b:10s} {h64:9.3f} {h256:10.3f}")
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'mean':10s} {arithmetic_mean(self.hit_64.values()):9.3f} "
            f"{arithmetic_mean(self.hit_256.values()):10.3f}"
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        mean64 = arithmetic_mean(self.hit_64.values())
        improved = [
            b for b in self.hit_64 if self.hit_256[b] > self.hit_64[b] + 0.02
        ]
        return [
            ShapeCheck(
                "most benchmarks have poor 64-entry hit rates (mean < 0.6)",
                mean64 < 0.6,
                f"mean={mean64:.3f}",
            ),
            ShapeCheck(
                "a majority of benchmarks benefit from 256 entries",
                len(improved) >= 5,
                f"improved={improved}",
            ),
            ShapeCheck(
                "nw stays low even with 256 entries",
                self.hit_256.get("nw", 1.0) < 0.55,
                f"nw@256={self.hit_256.get('nw', 0):.3f}",
            ),
            ShapeCheck(
                "gemm is already high at 64 entries",
                self.hit_64.get("gemm", 0.0) > 0.7,
                f"gemm@64={self.hit_64.get('gemm', 0):.3f}",
            ),
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    return [
        named_cell(b, config)
        for b in runner.benchmarks
        for config in ("baseline", "l1_256")
    ]


def compute(runner: ExperimentRunner, results: Results) -> Fig2Result:
    hit64 = {}
    hit256 = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        r64 = results[b, "baseline"]
        r256 = results[b, "l1_256"]
        if not collect_failures(failures, b, r64, r256):
            continue
        hit64[b] = r64.avg_l1_tlb_hit_rate
        hit256[b] = r256.avg_l1_tlb_hit_rate
    return Fig2Result(hit64, hit256, failures)
