"""Time-resolved L1 TLB miss rate (telemetry sampler figure).

The paper's temporal claims — warm-up cold-miss spikes, transient miss
behaviour after partitioning, the windows the TLB-aware scheduler
exploits — are invisible in end-of-run counters.  This extension runs
one representative benchmark under the baseline and the paper's
partitioning+sharing configuration with the
:class:`~repro.telemetry.TimeSeriesSampler` enabled, and renders the
machine-wide L1 TLB miss rate per sampling interval as an ASCII
strip chart over normalized execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..telemetry import interval_rate
from .runner import (
    Cell,
    ExperimentRunner,
    Results,
    ShapeCheck,
    collect_failures,
    failed_rows,
    named_cell,
)

#: per-scale sampling interval (cycles) sized for ~20-200 samples/run
SAMPLE_INTERVALS = {"micro": 500, "tiny": 500, "small": 2000, "paper": 10000}

#: the configurations whose miss rate is charted
TAGS = ("baseline", "partition_sharing")

#: display resolution of the strip chart (time buckets)
CHART_BUCKETS = 20
_BAR_WIDTH = 24


def miss_rate_series(timeseries: Dict) -> List[Optional[float]]:
    """Per-interval L1 miss rate from a ``RunResult.timeseries`` dict."""
    series = timeseries["series"]
    return interval_rate(series["l1_tlb_misses"], series["l1_tlb_hits"])


def access_series(timeseries: Dict) -> List[float]:
    """Cumulative L1 TLB accesses at each sample point."""
    series = timeseries["series"]
    return [
        h + m
        for h, m in zip(series["l1_tlb_hits"], series["l1_tlb_misses"])
    ]


def _bucketize(rates: List[Optional[float]], buckets: int) -> List[Optional[float]]:
    """Downsample per-interval rates to ``buckets`` averaged time buckets."""
    if not rates:
        return []
    out: List[Optional[float]] = []
    n = len(rates)
    buckets = min(buckets, n)
    for b in range(buckets):
        lo = b * n // buckets
        hi = max((b + 1) * n // buckets, lo + 1)
        window = [r for r in rates[lo:hi] if r is not None]
        out.append(sum(window) / len(window) if window else None)
    return out


def _bar(value: Optional[float]) -> str:
    if value is None:
        return "(idle)"
    filled = int(round(value * _BAR_WIDTH))
    return "#" * filled + "." * (_BAR_WIDTH - filled) + f" {value:5.3f}"


@dataclass
class TimeSeriesResult:
    benchmark: str
    interval: int
    #: config tag -> per-interval miss rate series
    rates: Dict[str, List[Optional[float]]]
    #: config tag -> total cycles (for the time axis)
    cycles: Dict[str, float]
    #: config tag -> cumulative L1 TLB accesses at each sample point
    accesses: Dict[str, List[float]] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"benchmark {self.benchmark}, machine-wide L1 TLB miss rate "
            f"per {self.interval}-cycle sample, bucketed to "
            f"{CHART_BUCKETS} time slices",
        ]
        for tag, rates in self.rates.items():
            lines.append("")
            lines.append(
                f"{tag} ({self.cycles[tag]:.0f} cycles, "
                f"{len(rates)} samples)"
            )
            for i, value in enumerate(_bucketize(rates, CHART_BUCKETS)):
                pct_lo = i * 100 // CHART_BUCKETS
                lines.append(f"  t={pct_lo:3d}% {_bar(value)}")
        lines.extend(failed_rows(self.failures))
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def _mean(self, tag: str, first_fraction: Optional[float] = None) -> float:
        rates = [r for r in self.rates.get(tag, []) if r is not None]
        if first_fraction is not None:
            rates = rates[: max(1, int(len(rates) * first_fraction))]
        return sum(rates) / len(rates) if rates else 0.0

    def _late_mean(self, tag: str) -> float:
        rates = [r for r in self.rates.get(tag, []) if r is not None]
        tail = rates[len(rates) // 2:]
        return sum(tail) / len(tail) if tail else 0.0

    def shape_checks(self) -> List[ShapeCheck]:
        base_samples = len(self.rates.get("baseline", []))
        checks = [
            ShapeCheck(
                "sampler produced a usable time series (>= 8 samples)",
                base_samples >= 8,
                f"samples={base_samples}",
            ),
            ShapeCheck(
                "warm-up is visible: early baseline miss rate exceeds the "
                "steady-state second half",
                self._mean("baseline", first_fraction=0.25)
                >= self._late_mean("baseline"),
                f"early={self._mean('baseline', 0.25):.3f} "
                f"late={self._late_mean('baseline'):.3f}",
            ),
            ShapeCheck(
                "sampled cumulative access counts are monotonic "
                "(sampler reads counters consistently)",
                all(
                    all(b >= a for a, b in zip(acc, acc[1:]))
                    for acc in self.accesses.values()
                )
                and bool(self.accesses),
                f"configs={sorted(self.accesses)}",
            ),
        ]
        return checks


def cells(runner: ExperimentRunner) -> List[Cell]:
    """The first benchmark's cells, asked to sample their counters."""
    interval = SAMPLE_INTERVALS.get(runner.scale, 2000)
    return [
        named_cell(runner.benchmarks[0], tag, sample_every=interval)
        for tag in TAGS
    ]


def compute(runner: ExperimentRunner, results: Results) -> TimeSeriesResult:
    benchmark = runner.benchmarks[0]
    interval = SAMPLE_INTERVALS.get(runner.scale, 2000)
    rates: Dict[str, List[Optional[float]]] = {}
    cycles: Dict[str, float] = {}
    accesses: Dict[str, List[float]] = {}
    failures: Dict[str, str] = {}
    for tag in TAGS:
        result = results[benchmark, tag]
        if not collect_failures(failures, benchmark, result):
            continue
        if result.timeseries is None:
            failures.setdefault(benchmark, "no-timeseries")
            continue
        rates[tag] = miss_rate_series(result.timeseries)
        cycles[tag] = result.cycles
        accesses[tag] = access_series(result.timeseries)
    return TimeSeriesResult(
        benchmark, interval, rates, cycles, accesses, failures
    )
