"""Fig 11 — execution time normalized to the baseline.

Bars: TLB-aware scheduling only, scheduling + partitioning, scheduling +
partitioning + set sharing.  Claims reproduced here:

* scheduling alone gives a small average reduction (paper: 2.3%);
* partitioning alone *increases* the average execution time (paper:
  +14.3% geomean) though it helps atax/bicg/nw/mvt;
* partitioning + sharing reduces the average execution time
  (paper: −12.5%);
* nw's hit-rate gain does not translate into a proportional time gain
  (compute-bound, the warp scheduler hides translation latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

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

CONFIG_NAMES = ("baseline", "sched", "partition", "partition_sharing")


@dataclass
class Fig11Result:
    #: normalized execution time per benchmark, per configuration
    sched: Dict[str, float]
    partition: Dict[str, float]
    sharing: Dict[str, float]
    #: absolute baseline cycles (for reference)
    baseline_cycles: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"{'benchmark':10s} {'sched':>7s} {'partition':>10s} "
            f"{'part+share':>11s}"
        ]
        for b in self.sched:
            lines.append(
                f"{b:10s} {self.sched[b]:7.3f} {self.partition[b]:10.3f} "
                f"{self.sharing[b]:11.3f}"
            )
        lines.extend(failed_rows(self.failures))
        lines.append(
            f"{'geomean':10s} {geomean(self.sched.values()):7.3f} "
            f"{geomean(self.partition.values()):10.3f} "
            f"{geomean(self.sharing.values()):11.3f}"
        )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        sched_gm = geomean(self.sched.values())
        part_gm = geomean(self.partition.values())
        share_gm = geomean(self.sharing.values())
        part_winners = [
            b for b in ("atax", "bicg", "nw", "mvt")
            if b in self.partition and self.partition[b] < 1.0
        ]
        nw_muted = True
        if "nw" in self.sharing:
            # nw's time gain should be modest relative to its hit gain.
            nw_muted = self.sharing["nw"] > 0.75
        return [
            ShapeCheck(
                "scheduling alone gives a small improvement (paper 2.3%)",
                0.9 <= sched_gm <= 1.01,
                f"geomean={sched_gm:.3f}",
            ),
            ShapeCheck(
                "partitioning alone does not improve average time "
                "(paper +14.3%)",
                part_gm > share_gm and part_gm > 0.97,
                f"geomean={part_gm:.3f}",
            ),
            ShapeCheck(
                "partitioning helps the interference-bound benchmarks' time",
                len(part_winners) >= 3,
                f"faster-with-partition: {part_winners}",
            ),
            ShapeCheck(
                "partitioning + sharing reduces average time (paper -12.5%)",
                share_gm < 0.97,
                f"geomean={share_gm:.3f} "
                f"({100 * (1 - share_gm):.1f}% reduction)",
            ),
            ShapeCheck(
                "nw's hit-rate gain does not fully translate into time "
                "(compute-bound)",
                nw_muted,
                f"nw share={self.sharing.get('nw', 1.0):.3f}",
            ),
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    return [named_cell(b, c) for b in runner.benchmarks for c in CONFIG_NAMES]


def compute(runner: ExperimentRunner, results: Results) -> Fig11Result:
    sched: Dict[str, float] = {}
    partition: Dict[str, float] = {}
    sharing: Dict[str, float] = {}
    base: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        rb, rsc, rp, rsh = (results[b, c] for c in CONFIG_NAMES)
        if not collect_failures(failures, b, rb, rsc, rp, rsh):
            continue
        base[b] = rb.cycles
        sched[b] = rsc.cycles / rb.cycles
        partition[b] = rp.cycles / rb.cycles
        sharing[b] = rsh.cycles / rb.cycles
    return Fig11Result(sched, partition, sharing, base, failures)
