"""Fig 12 — comparison against the TLB-compression comparator.

The comparator (Tang et al., PACT 2020) stride-compresses contiguous
translations into single L1 TLB entries.  The paper combines its own
scheduling + partitioning + sharing with compression and normalizes to
compression alone; the combination brings an additional ~10.4% average
speedup — i.e. the approaches are complementary.
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


@dataclass
class Fig12Result:
    #: speedup of (ours + compression) over compression alone, per bench
    speedup: Dict[str, float]
    compression_cycles: Dict[str, float]
    combined_cycles: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [f"{'benchmark':10s} {'speedup':>8s}"]
        for b, s in self.speedup.items():
            lines.append(f"{b:10s} {s:8.3f}")
        lines.extend(failed_rows(self.failures))
        lines.append(f"{'geomean':10s} {geomean(self.speedup.values()):8.3f}")
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        gm = geomean(self.speedup.values())
        improved = [b for b, s in self.speedup.items() if s > 1.0]
        return [
            ShapeCheck(
                "ours + compression outperforms compression alone on "
                "average (paper +10.4%)",
                gm > 1.02,
                f"geomean speedup={gm:.3f}",
            ),
            ShapeCheck(
                "the combination helps a majority of benchmarks "
                "(complementary, not redundant)",
                len(improved) >= 5,
                f"improved: {improved}",
            ),
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    return [
        named_cell(b, c)
        for b in runner.benchmarks
        for c in ("compression", "comp_ours")
    ]


def compute(runner: ExperimentRunner, results: Results) -> Fig12Result:
    speedup = {}
    comp_cycles = {}
    combined_cycles = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        rc = results[b, "compression"]
        ro = results[b, "comp_ours"]
        if not collect_failures(failures, b, rc, ro):
            continue
        comp_cycles[b] = rc.cycles
        combined_cycles[b] = ro.cycles
        speedup[b] = rc.cycles / ro.cycles
    return Fig12Result(speedup, comp_cycles, combined_cycles, failures)
