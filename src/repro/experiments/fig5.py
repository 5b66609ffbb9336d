"""Fig 5 — CDF of intra-TB translation reuse distance under concurrent
execution (inter-TB interference included).

The distances are measured on the per-SM L1 TLB access streams recorded
during a baseline simulation.  Paper claim reproduced here: for bfs,
mis, nw, atax, bicg and mvt, most intra-TB reuses have distances
exceeding the 64-entry L1 TLB capacity (2^6), which is why the baseline
hit rates of Fig 2 are poor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..engine.stats import Histogram
from ..characterization import fraction_within, interleaved_distances
from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    collect_failures,
    failed_rows,
    named_cell,
)

LONG_DISTANCE_BENCHMARKS = ("bfs", "mis", "nw", "atax", "bicg", "mvt")
L1_CAPACITY = 64


@dataclass
class Fig5Result:
    histograms: Dict[str, Histogram]
    failures: Dict[str, str] = field(default_factory=dict)

    def within_capacity(self) -> Dict[str, float]:
        return {
            b: fraction_within(h, L1_CAPACITY)
            for b, h in self.histograms.items()
        }

    def format_table(self) -> str:
        lines = [f"{'benchmark':10s} {'reuses<=2^6':>12s} {'reuses>2^6':>11s}"]
        for b, frac in self.within_capacity().items():
            lines.append(f"{b:10s} {frac:12.3f} {1 - frac:11.3f}")
        lines.extend(failed_rows(self.failures))
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        within = self.within_capacity()
        exceed = [
            b for b in LONG_DISTANCE_BENCHMARKS
            if b in within and within[b] < 0.5
        ]
        return [
            ShapeCheck(
                "for bfs/mis/nw/atax/bicg/mvt most intra-TB reuses exceed "
                "the 64-entry L1 TLB capacity",
                len(exceed) >= 4,
                f"majority-beyond-2^6: {exceed}",
            )
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    """The baseline cells of Fig 2, asked to record their TLB streams."""
    return [
        named_cell(b, "baseline", record_tlb_trace=True)
        for b in runner.benchmarks
    ]


def compute(runner: ExperimentRunner, results: Results) -> Fig5Result:
    histograms = {}
    failures: Dict[str, str] = {}
    for b in runner.benchmarks:
        result = results[b, "baseline"]
        if not collect_failures(failures, b, result):
            continue
        histograms[b] = interleaved_distances(result.tlb_traces or [])
    return Fig5Result(histograms, failures)
