"""Trace-file summarization: the engine behind ``repro trace FILE``.

Reads a Chrome trace-event JSON file written by
:class:`~repro.telemetry.tracer.Tracer` (or merged by
:func:`~repro.telemetry.tracer.merge_traces`) and reduces it to the
questions one actually asks of a trace before opening a viewer: how
many events of each kind, which SM was busiest, which TBs produced the
most misses, and how long translation stalls lasted.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..engine.stats import Histogram
from .tracer import CAT_TB, CAT_TLB, CAT_WARP


def load_trace(path: str) -> Dict[str, Any]:
    """Load a trace file, accepting both the object and bare-array forms."""
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, list):  # bare traceEvents array is also valid
        payload = {"traceEvents": payload}
    if "traceEvents" not in payload:
        raise ValueError(f"{path}: no traceEvents — not a Chrome trace file")
    return payload


@dataclass
class TraceSummary:
    """Aggregates over one trace file."""

    total_events: int = 0
    first_cycle: Optional[float] = None
    last_cycle: Optional[float] = None
    #: events per category (kernel/tb/tlb/walk/warp/sched/sample)
    by_category: Dict[str, int] = field(default_factory=dict)
    #: events per (category, name), e.g. ("tlb", "miss")
    by_name: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (process label, lane name) -> event count
    lane_events: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: per-SM event counts (lanes whose name starts with "SM")
    sm_events: Dict[str, int] = field(default_factory=dict)
    #: TB index -> translation-stall count (one stall = one L1 miss window)
    tb_misses: Dict[int, int] = field(default_factory=dict)
    #: stall-duration histogram (cycles, integer-bucketed)
    stall_cycles: Histogram = field(default_factory=lambda: Histogram("stall"))
    tb_spans: int = 0

    # ------------------------------------------------------------------ #
    @property
    def span_cycles(self) -> float:
        if self.first_cycle is None or self.last_cycle is None:
            return 0.0
        return self.last_cycle - self.first_cycle

    def busiest_sm(self) -> Optional[Tuple[str, int]]:
        """(SM lane, event count) of the most active SM, or ``None``."""
        if not self.sm_events:
            return None
        return max(self.sm_events.items(), key=lambda kv: (kv[1], kv[0]))

    def top_miss_tbs(self, n: int = 5) -> List[Tuple[int, int]]:
        """The ``n`` TBs with the most translation stalls (misses)."""
        ranked = sorted(self.tb_misses.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    # ------------------------------------------------------------------ #
    def format(self, top: int = 5) -> str:
        lines = [
            f"events           {self.total_events}",
            f"cycle span       {self.first_cycle:.0f} .. {self.last_cycle:.0f}"
            f" ({self.span_cycles:.0f} cycles)"
            if self.first_cycle is not None
            else "cycle span       (no timed events)",
        ]
        if self.by_category:
            cats = "  ".join(
                f"{cat}={count}"
                for cat, count in sorted(self.by_category.items())
            )
            lines.append(f"by category      {cats}")
        for key in ((CAT_TLB, "hit"), (CAT_TLB, "miss"), (CAT_TLB, "evict")):
            if key in self.by_name:
                lines.append(f"{key[0]}.{key[1]:12s} {self.by_name[key]}")
        lines.append(f"tb spans         {self.tb_spans}")
        busiest = self.busiest_sm()
        if busiest is not None:
            lines.append(f"busiest SM       {busiest[0]} ({busiest[1]} events)")
        ranked = self.top_miss_tbs(top)
        if ranked:
            lines.append("top miss-producing TBs:")
            for tb, count in ranked:
                lines.append(f"  tb{tb:<6d} {count} stalls")
        if self.stall_cycles.total:
            p50 = self.stall_cycles.percentile(50)
            p95 = self.stall_cycles.percentile(95)
            lines.append(
                f"stall duration   p50={p50} p95={p95} cycles "
                f"(n={self.stall_cycles.total})"
            )
        return "\n".join(lines)


def summarize_trace(payload: Dict[str, Any]) -> TraceSummary:
    """Reduce a loaded trace to a :class:`TraceSummary`."""
    summary = TraceSummary()
    # lane names: (pid, tid) -> name, process labels: pid -> label
    lane_names: Dict[Tuple[int, int], str] = {}
    process_labels: Dict[int, str] = {}
    events = payload.get("traceEvents", [])
    for event in events:
        if event.get("ph") != "M":
            continue
        pid = event.get("pid", 0)
        if event.get("name") == "thread_name":
            lane_names[(pid, event.get("tid", 0))] = event["args"]["name"]
        elif event.get("name") == "process_name":
            process_labels[pid] = event["args"]["name"]
    lane_counts: Dict[Tuple[str, str], int] = defaultdict(int)
    sm_counts: Dict[str, int] = defaultdict(int)
    by_cat: Dict[str, int] = defaultdict(int)
    by_name: Dict[Tuple[str, str], int] = defaultdict(int)
    tb_misses: Dict[int, int] = defaultdict(int)
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            continue
        summary.total_events += 1
        ts = event.get("ts")
        if ts is not None:
            end = ts + event.get("dur", 0.0)
            if summary.first_cycle is None or ts < summary.first_cycle:
                summary.first_cycle = ts
            if summary.last_cycle is None or end > summary.last_cycle:
                summary.last_cycle = end
        cat = event.get("cat", "?")
        name = event.get("name", "?")
        by_cat[cat] += 1
        by_name[(cat, name)] += 1
        pid = event.get("pid", 0)
        lane = lane_names.get((pid, event.get("tid", 0)), f"tid{event.get('tid', 0)}")
        lane_counts[(process_labels.get(pid, "gpu"), lane)] += 1
        if lane.startswith("SM"):
            sm_counts[lane.split(" ")[0].split(".")[0]] += 1
        if cat == CAT_TB and ph == "X":
            summary.tb_spans += 1
        if cat == CAT_WARP and name == "tlb_stall":
            args = event.get("args", {})
            tb = args.get("tb")
            if tb is not None:
                tb_misses[int(tb)] += 1
            summary.stall_cycles.add(int(event.get("dur", 0.0)))
    summary.by_category = dict(by_cat)
    summary.by_name = dict(by_name)
    summary.lane_events = dict(lane_counts)
    summary.sm_events = dict(sm_counts)
    summary.tb_misses = dict(tb_misses)
    return summary
