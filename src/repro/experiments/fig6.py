"""Fig 6 — intra-TB reuse-distance CDF with interference removed
(one TB at a time).

Distances are measured on each TB's isolated access stream.  Paper claim
reproduced here: compared to Fig 5's interleaved streams, removing
inter-TB interference shifts the reuse-distance distribution toward
shorter distances for most benchmarks — the motivation for partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..engine.errors import SimulationError, classify
from ..engine.stats import Histogram
from ..characterization import fraction_within, isolated_distances
from . import fig5 as fig5_mod
from .runner import Cell, ExperimentRunner, Results, ShapeCheck, failed_rows
from .fig5 import L1_CAPACITY


@dataclass
class Fig6Result:
    histograms: Dict[str, Histogram]
    interference: Dict[str, Histogram]
    failures: Dict[str, str] = field(default_factory=dict)

    def within_capacity(self) -> Dict[str, float]:
        return {
            b: fraction_within(h, L1_CAPACITY)
            for b, h in self.histograms.items()
        }

    def format_table(self) -> str:
        iso = self.within_capacity()
        inter = {
            b: fraction_within(h, L1_CAPACITY)
            for b, h in self.interference.items()
        }
        lines = [
            f"{'benchmark':10s} {'<=2^6 isolated':>15s} {'<=2^6 interfered':>17s}"
        ]
        for b in iso:
            lines.append(f"{b:10s} {iso[b]:15.3f} {inter.get(b, 0.0):17.3f}")
        lines.extend(failed_rows(self.failures))
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        iso = self.within_capacity()
        inter = {
            b: fraction_within(h, L1_CAPACITY)
            for b, h in self.interference.items()
        }
        reduced = [
            b for b in iso if iso[b] >= inter.get(b, 0.0) - 1e-9
        ]
        strictly = [b for b in iso if iso[b] > inter.get(b, 0.0) + 0.02]
        return [
            ShapeCheck(
                "removing interference never lengthens reuse distances",
                len(reduced) >= 8,
                f"{len(reduced)}/10 non-worse",
            ),
            ShapeCheck(
                "most benchmarks show clearly reduced distances in isolation",
                len(strictly) >= 5,
                f"strictly-shorter: {strictly}",
            ),
        ]


def cells(runner: ExperimentRunner) -> List[Cell]:
    """Fig 5's cells: the interfered distances come from its traces."""
    return fig5_mod.cells(runner)


def compute(runner: ExperimentRunner, results: Results) -> Fig6Result:
    fig5 = fig5_mod.compute(runner, results)
    isolated: Dict[str, Histogram] = {}
    failures: Dict[str, str] = dict(fig5.failures)
    for b in runner.benchmarks:
        if b in failures:
            continue
        try:
            isolated[b] = isolated_distances(runner.kernel(b))
        except SimulationError as exc:
            if runner.strict:
                raise
            failures[b] = classify(exc)
    return Fig6Result(isolated, fig5.histograms, failures)
