"""Time-series sampling of simulator statistics.

A :class:`TimeSeriesSampler` snapshots selected
:class:`~repro.engine.stats.StatRegistry` counters every ``interval``
cycles into columnar series: one shared ``cycles`` axis plus one value
column per configured series.  Counters matching a series' group glob
are *summed* (e.g. ``sm*_l1tlb.misses`` aggregates all SMs), so the
columns are cumulative machine-wide totals; per-interval rates are
derived afterwards with :func:`interval_rate`.

The sampler is driven by the event queue's time watcher — it observes
every clock advance and samples when the clock crosses the next
``interval`` boundary — so it needs no events of its own in the queue
and cannot keep a drained simulation alive.  When a
:class:`~repro.telemetry.tracer.Tracer` is active in the same
simulation, each sample is also emitted as Chrome ``C`` (counter)
events, giving Perfetto counter tracks alongside the span lanes.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (column name, stat-group glob, counter name) — matched groups are summed
SeriesSpec = Tuple[str, str, str]

DEFAULT_SERIES: Tuple[SeriesSpec, ...] = (
    ("l1_tlb_hits", "sm*_l1tlb", "hits"),
    ("l1_tlb_misses", "sm*_l1tlb", "misses"),
    ("l1_tlb_evictions", "sm*_l1tlb", "evictions"),
    ("sharing_spills", "sm*_l1tlb", "sharing_spills"),
    ("l2_tlb_hits", "l2_tlb", "hits"),
    ("l2_tlb_misses", "l2_tlb", "misses"),
    ("walks", "walkers", "walks"),
    ("far_faults", "walkers", "far_faults"),
    ("tbs_completed", "sm[0-9]*", "tbs_completed"),
)


class TimeSeriesSampler:
    """Snapshots registry counters (and ad-hoc probes) every N cycles."""

    def __init__(
        self,
        interval: int,
        series: Sequence[SeriesSpec] = DEFAULT_SERIES,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self.series_specs = tuple(series)
        self.cycles: List[float] = []
        self.columns: Dict[str, List[float]] = {
            name: [] for name, _, _ in self.series_specs
        }
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self._registry = None
        self._tracer = None
        self._next = float(interval)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, sim) -> None:
        """Bind to a simulator: read its registry, watch its clock, and
        mirror samples into its tracer when one is active."""
        self._registry = sim.stats
        self._tracer = sim.tracer if sim.tracer.enabled else None
        sim.queue.time_watcher = self.on_time_advance

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        """Register a named callable sampled alongside the counters
        (e.g. resident-TB occupancy, which no counter tracks)."""
        if name in self.columns:
            raise ValueError(f"duplicate sampler column {name!r}")
        self._probes.append((name, probe))
        self.columns[name] = []

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def on_time_advance(self, now: float) -> None:
        """Event-queue time watcher: sample on interval crossings."""
        if now >= self._next:
            self.sample(now)
            # land on the next boundary after ``now`` (a big time jump
            # produces one sample, not one per skipped boundary)
            periods = int(now // self.interval) + 1
            self._next = float(periods * self.interval)

    def sample(self, now: float) -> None:
        """Record one row of every configured series at cycle ``now``."""
        self.cycles.append(now)
        counter_values = {}
        for name, group_glob, counter in self.series_specs:
            total = 0
            for group in self._registry.groups():
                if fnmatchcase(group.name, group_glob):
                    # non-creating read: polling must not add zero
                    # counters to groups that don't own this stat
                    value = group.counter_value(counter)
                    if value is not None:
                        total += value
            self.columns[name].append(total)
            counter_values[name] = total
        for name, probe in self._probes:
            value = float(probe())
            self.columns[name].append(value)
            counter_values[name] = value
        tracer = self._tracer
        if tracer is not None:
            self._emit_counters(tracer, now, counter_values)

    def _emit_counters(self, tracer, now: float, values: Dict[str, float]) -> None:
        tracer.counter("tlb", now, {
            "l1_miss_rate": self._latest_rate("l1_tlb_misses", "l1_tlb_hits"),
        })
        for name, value in values.items():
            tracer.counter(name, now, {"value": value})

    def _latest_rate(self, miss_col: str, hit_col: str) -> float:
        """Miss fraction over the most recent sampling interval."""
        misses = self.columns.get(miss_col, [])
        hits = self.columns.get(hit_col, [])
        if not misses or not hits:
            return 0.0
        i = len(misses) - 1
        prev_m = misses[i - 1] if i > 0 else 0
        prev_h = hits[i - 1] if i > 0 else 0
        dm = misses[i] - prev_m
        dh = hits[i] - prev_h
        total = dm + dh
        return dm / total if total else 0.0

    def finalize(self, now: float) -> None:
        """Take a final sample at end-of-run if the last boundary missed it."""
        if self._registry is None:
            return
        if not self.cycles or self.cycles[-1] < now:
            self.sample(now)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Columnar JSON-compatible form (stored on ``RunResult.timeseries``)."""
        return {
            "interval": self.interval,
            "cycles": list(self.cycles),
            "series": {name: list(col) for name, col in self.columns.items()},
        }


def interval_rate(
    numerator: Sequence[float],
    denominator_extra: Sequence[float],
) -> List[Optional[float]]:
    """Per-interval rate from two cumulative columns.

    Returns ``delta(numerator) / (delta(numerator) + delta(extra))`` per
    sample — e.g. misses and hits give the per-interval miss rate.
    Intervals with no activity yield ``None`` (not 0.0) so plots can
    show gaps instead of lying flat.
    """
    out: List[Optional[float]] = []
    prev_n = 0.0
    prev_d = 0.0
    for n, d in zip(numerator, denominator_extra):
        dn = n - prev_n
        dd = d - prev_d
        total = dn + dd
        out.append(dn / total if total else None)
        prev_n, prev_d = n, d
    return out
