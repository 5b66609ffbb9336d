"""Translation-mechanism zoo: the spec-generated ablation matrix.

Every row of this experiment comes from
:data:`repro.experiments.configs.ZOO_SPECS` — a mechanism is one spec
string, resolved against the component table into a ``GPUConfig`` and
declared as an ordinary plan :class:`~repro.experiments.runner.Cell`
(``zoo_baseline`` is the plain baseline, so it is the same simulation
as the other figures' ``baseline`` cell).  There is deliberately *no
per-mechanism experiment code* here: adding a mechanism to the matrix
is one spec line in ``ZOO_SPECS``.

The matrix stresses frame-placement sensitivity end to end: the
contiguity TLB (arXiv 2110.08613) coalesces only when frames preserve
region offsets, a fragmented heap destroys that, and Mosaic allocation
(arXiv 1804.11265) restores it without huge pages.  Dead-entry
protection (arXiv 2606.00486) is placement-independent and must never
blow up execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .configs import ZOO_SPECS, resolve_spec
from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    collect_failures,
    failed_rows,
    geomean,
)

#: benchmarks the matrix runs on (kept small: |ZOO_SPECS| x |benchmarks|)
ZOO_BENCHMARKS = ("bfs", "atax")


def _short(name: str) -> str:
    return name[4:] if name.startswith("zoo_") else name


@dataclass
class ZooResult:
    """mechanism -> benchmark -> metric, all relative to ``zoo_baseline``."""

    #: cycles normalized to the zoo baseline (same benchmark)
    norm_time: Dict[str, Dict[str, float]]
    #: absolute L1 TLB hit rate per cell
    hit_rate: Dict[str, Dict[str, float]]
    #: the spec string each row resolved from (provenance in the table)
    specs: Dict[str, str]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        benchmarks = sorted(
            {b for per in self.norm_time.values() for b in per}
        )
        lines = [
            f"{'mechanism':12s} {'spec':42s} "
            + " ".join(f"{b + ' time':>11s} {b + ' L1$':>9s}" for b in benchmarks)
        ]
        for name in self.norm_time:
            cells = []
            for b in benchmarks:
                t = self.norm_time[name].get(b)
                h = self.hit_rate[name].get(b)
                cells.append(
                    f"{t:11.3f} {h:9.3f}" if t is not None and h is not None
                    else f"{'-':>11s} {'-':>9s}"
                )
            spec = self.specs.get(name, "") or "(defaults)"
            lines.append(f"{_short(name):12s} {spec:42s} " + " ".join(cells))
        lines.extend(failed_rows(self.failures))
        return "\n".join(lines)

    def _geomean_hit(self, name: str) -> float:
        rates = [r for r in self.hit_rate.get(name, {}).values() if r > 0]
        return geomean(rates) if rates else 0.0

    def shape_checks(self) -> List[ShapeCheck]:
        expected = len(ZOO_SPECS)
        complete = [
            name for name in ZOO_SPECS
            if len(self.norm_time.get(name, {})) > 0
        ]
        dead_times = list(self.norm_time.get("zoo_dead_entry", {}).values())
        dead_gm = geomean(dead_times) if dead_times else float("inf")
        contig_hit = self._geomean_hit("zoo_contiguity")
        base_hit = self._geomean_hit("zoo_baseline")
        frag_hit = self._geomean_hit("zoo_frag")
        mosaic_hit = self._geomean_hit("zoo_mosaic")
        return [
            ShapeCheck(
                "every registry-generated mechanism produced results",
                len(complete) == expected,
                f"{len(complete)}/{expected} mechanisms",
            ),
            ShapeCheck(
                "contiguity large-reach entries do not hurt the L1 hit "
                "rate on a contiguous heap",
                contig_hit >= base_hit - 0.02,
                f"contiguity {contig_hit:.3f} vs baseline {base_hit:.3f}",
            ),
            ShapeCheck(
                "mosaic allocation restores the coalescing a fragmented "
                "heap destroys",
                mosaic_hit >= frag_hit,
                f"mosaic {mosaic_hit:.3f} vs fragmented {frag_hit:.3f}",
            ),
            ShapeCheck(
                "dead-entry bypass never blows up execution time",
                dead_gm <= 1.10,
                f"geomean normalized time {dead_gm:.3f}",
            ),
        ]


def cells(runner: ExperimentRunner, benchmarks=ZOO_BENCHMARKS) -> List[Cell]:
    configs = {name: resolve_spec(spec) for name, spec in ZOO_SPECS.items()}
    return [
        Cell(b, name, config)
        for b in benchmarks
        if b in runner.benchmarks
        for name, config in configs.items()
    ]


def compute(
    runner: ExperimentRunner, results: Results, benchmarks=ZOO_BENCHMARKS
) -> ZooResult:
    norm_time: Dict[str, Dict[str, float]] = {}
    hit_rate: Dict[str, Dict[str, float]] = {}
    failures: Dict[str, str] = {}
    for b in benchmarks:
        if b not in runner.benchmarks:
            continue
        base = results[b, "zoo_baseline"]
        if not collect_failures(failures, b, base):
            continue
        for name in ZOO_SPECS:
            result = results[b, name]
            if not collect_failures(failures, b, result):
                continue
            norm_time.setdefault(name, {})[b] = (
                result.cycles / base.cycles if base.cycles else 0.0
            )
            hit_rate.setdefault(name, {})[b] = (
                result.l1_tlb_hits / result.l1_tlb_accesses
                if result.l1_tlb_accesses else 0.0
            )
    return ZooResult(norm_time, hit_rate, dict(ZOO_SPECS), failures)
