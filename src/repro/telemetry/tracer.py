"""Cycle-stamped event tracer with Chrome trace-event JSON export.

Events are recorded as flat tuples on one append-only list — the
enabled hot path is a bounds-free ``list.append`` — and formatted into
the Chrome trace-event format only at export time.  The export is
loadable by ``chrome://tracing`` and https://ui.perfetto.dev: each
simulated component gets its own "thread" lane (tid) inside one "gpu"
process, timestamps are simulation cycles (rendered by the viewers as
microseconds), and lanes carry ``thread_name`` metadata.

Disabled tracing uses the null-object pattern *once*, at wiring time:
:data:`NULL_TRACER` is handed to components, which cache ``None``
instead of it (``tracer if tracer.enabled else None``), so the disabled
per-event cost is a single attribute load + ``is not None`` check and
zero allocation.  The overhead-guard test in
``tests/test_telemetry.py`` enforces this with a call-counting spy.

Event taxonomy (the ``cat`` field; see DESIGN.md §7):

=========== ==== =====================================================
category    ph   meaning
=========== ==== =====================================================
``kernel``  X    whole-kernel span on the ``kernel`` lane
``tb``      X/i  TB launch→retire span (per SM×slot lane); dispatch instant
``tlb``     i    L1/L2 TLB ``hit``/``miss``/``evict`` instants
``walk``    X    page-walk start→end span (per walker lane)
``warp``    X    warp translation-stall interval (miss→fill)
``sched``   i    TB-scheduler decisions (``divert``/``fallback``)
``sample``  C    time-series counter samples (Perfetto counter tracks)
=========== ==== =====================================================
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

CAT_KERNEL = "kernel"
CAT_TB = "tb"
CAT_TLB = "tlb"
CAT_WALK = "walk"
CAT_WARP = "warp"
CAT_SCHED = "sched"
CAT_SAMPLE = "sample"

#: phases of the Chrome trace-event format we emit
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_COUNTER = "C"
_PH_METADATA = "M"

#: internal storage: (ph, ts, dur, tid, cat, name, args)
_Event = Tuple[str, float, float, int, str, str, Optional[Dict[str, Any]]]


class NullTracer:
    """Disabled tracer: every recording method is a no-op.

    Components must not call these on the hot path — they cache ``None``
    when handed a tracer with ``enabled`` False — but the null object
    keeps non-hot call sites (export, track registration) total.
    """

    __slots__ = ()
    enabled = False

    def track(self, name: str) -> int:
        return 0

    def instant(self, cat, name, ts, track, args=None) -> None:
        pass

    def complete(self, cat, name, ts, dur, track, args=None) -> None:
        pass

    def counter(self, name, ts, values) -> None:
        pass


#: the shared disabled tracer; identity-checked by the overhead tests
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records typed, cycle-stamped events for one simulation."""

    __slots__ = ("_events", "_tracks")
    enabled = True

    def __init__(self) -> None:
        self._events: List[_Event] = []
        self._tracks: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Lanes
    # ------------------------------------------------------------------ #
    def track(self, name: str) -> int:
        """Return the lane (Chrome ``tid``) for ``name``, allocating on
        first use.  Allocation order fixes the lane order in the viewer,
        so wiring code registers lanes in a stable order."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks) + 1  # tid 0 reserved for counters
            self._tracks[name] = tid
        return tid

    # ------------------------------------------------------------------ #
    # Recording (hot path when enabled)
    # ------------------------------------------------------------------ #
    def instant(
        self,
        cat: str,
        name: str,
        ts: float,
        track: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A point event at cycle ``ts`` on lane ``track``."""
        self._events.append((_PH_INSTANT, ts, 0.0, track, cat, name, args))

    def complete(
        self,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        track: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A span covering cycles ``[ts, ts + dur]`` on lane ``track``."""
        self._events.append((_PH_COMPLETE, ts, dur, track, cat, name, args))

    def counter(self, name: str, ts: float, values: Dict[str, float]) -> None:
        """A counter sample; viewers render these as per-name graphs."""
        self._events.append((_PH_COUNTER, ts, 0.0, 0, CAT_SAMPLE, name, values))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_chrome(self, pid: int = 0, label: str = "gpu") -> List[Dict[str, Any]]:
        """Chrome trace-event dicts: lane metadata first, then events."""
        out: List[Dict[str, Any]] = [
            {
                "ph": _PH_METADATA,
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        ]
        for name, tid in self._tracks.items():
            out.append(
                {
                    "ph": _PH_METADATA,
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
            out.append(
                {
                    "ph": _PH_METADATA,
                    "name": "thread_sort_index",
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        for ph, ts, dur, tid, cat, name, args in self._events:
            event: Dict[str, Any] = {
                "ph": ph,
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "cat": cat,
                "name": name,
            }
            if ph == _PH_COMPLETE:
                event["dur"] = dur
            if ph == _PH_INSTANT:
                event["s"] = "t"  # thread-scoped instant
            if args is not None:
                event["args"] = args
            out.append(event)
        return out

    def dumps(self, pid: int = 0, label: str = "gpu") -> str:
        """Deterministic JSON text of the whole trace.

        Contains only simulation-derived data (no wall-clock, no paths),
        so equal-seed runs serialize byte-identically — the determinism
        tests compare these strings directly.
        """
        return json.dumps(
            {
                "traceEvents": self.to_chrome(pid=pid, label=label),
                "displayTimeUnit": "ms",
                "otherData": {
                    "generator": "repro.telemetry",
                    "clock": "gpu-cycles",
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def export(self, path: str, label: str = "gpu") -> str:
        """Write the trace to ``path``; returns the path written."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.dumps(label=label))
        return path


def merge_traces(parts: Sequence[Tuple[str, str]], out_path: str) -> str:
    """Merge per-cell trace files into one multi-process trace.

    ``parts`` is ``[(label, path), ...]``; each part becomes its own
    Chrome "process" (pid = part index) named ``label``, so a merged
    sweep trace shows every cell side by side in the viewer.  Written by
    supervised workers (one file per cell), merged by the runner.
    """
    events: List[Dict[str, Any]] = []
    other: Dict[str, Any] = {"generator": "repro.telemetry", "clock": "gpu-cycles"}
    for pid, (label, path) in enumerate(parts):
        with open(path) as handle:
            payload = json.load(handle)
        for event in payload.get("traceEvents", []):
            event["pid"] = pid
            if event.get("ph") == _PH_METADATA and event.get("name") == "process_name":
                event["args"] = {"name": label}
            events.append(event)
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": other,
            },
            handle,
            sort_keys=True,
            separators=(",", ":"),
        )
    return out_path
