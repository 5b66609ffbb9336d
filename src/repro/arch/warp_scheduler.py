"""Greedy-Then-Oldest (GTO) warp issue arbitration.

The baseline architecture (Table III) issues with GTO: keep issuing from
the same warp while it is ready ("greedy"), otherwise switch to the
oldest ready warp.  We model the SM's issue stage as a single port with a
fixed initiation interval; when the port frees, arbitration picks the
greedy warp if it is waiting, else the lowest-``age`` waiter.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.simulator import Simulator
from .warp import WarpRuntime

GrantCallback = Callable[[float], None]

_AGE = attrgetter("age")


class GTOIssuePort:
    """Event-driven GTO issue port for one SM.

    The oldest-warp fallback runs off a lazy-deletion age heap: a
    request pushes ``(age, seq, warp)`` and arbitration pops until the
    top entry's warp is still waiting.  Dispatch ages are globally
    unique (the GPU advances its age base per thread block), so the
    heap's minimum is exactly ``min(waiting, key=age)`` — without the
    O(waiting) scan per arbitration the profile showed.  Greedy grants
    leave their entry behind; a compaction rebuild bounds the garbage.
    """

    #: TranslationAwareIssuePort overrides ``_pick`` with an
    #: outcome-filtered scan and opts out of heap maintenance
    _uses_age_heap = True

    def __init__(self, sim: Simulator, issue_interval: float = 1.0) -> None:
        if issue_interval <= 0:
            raise ValueError(f"issue interval must be positive: {issue_interval}")
        self.sim = sim
        # bound queue reference: _kick/_arbitrate run per issue slot and
        # read the clock / post events with no property or forwarding hop
        self._queue = sim.queue
        self.issue_interval = issue_interval
        self._waiting: Dict[WarpRuntime, GrantCallback] = {}
        self._age_heap: List[Tuple[int, int, WarpRuntime]] = []
        self._heap_seq = 0
        self._busy_until = 0.0
        self._arbitration_pending = False
        self._last_issued: Optional[WarpRuntime] = None

    def request(self, warp: WarpRuntime, callback: GrantCallback) -> None:
        """Warp asks to issue; ``callback(grant_time)`` fires when granted."""
        if warp in self._waiting:
            raise RuntimeError(f"{warp!r} already waiting on the issue port")
        self._waiting[warp] = callback
        if self._uses_age_heap:
            seq = self._heap_seq
            self._heap_seq = seq + 1
            heappush(self._age_heap, (warp.age, seq, warp))
        self._kick()

    def _kick(self) -> None:
        if self._arbitration_pending or not self._waiting:
            return
        self._arbitration_pending = True
        queue = self._queue
        now = queue.now
        when = now if now >= self._busy_until else self._busy_until
        queue.post(when, self._arbitrate, priority=-1)

    def _arbitrate(self) -> None:
        self._arbitration_pending = False
        waiting = self._waiting
        if not waiting:
            return
        now = self._queue.now
        # greedy fast path inlined from _pick (the common case)
        last = self._last_issued
        if last is not None and last in waiting:
            warp = last
        else:
            warp = self._pick()
        callback = waiting.pop(warp)
        self._last_issued = warp
        busy = now + self.issue_interval
        self._busy_until = busy
        callback(now)
        # tail _kick inlined: the port just went busy until ``busy`` > now,
        # so a pending follow-up arbitration always lands at ``busy`` (the
        # callback cannot advance the clock, only event pops do)
        if not self._arbitration_pending and self._waiting:
            self._arbitration_pending = True
            self._queue.post(busy, self._arbitrate, priority=-1)

    def _pick(self) -> WarpRuntime:
        """GTO: greedy (last issued) if ready, else oldest by dispatch age."""
        last = self._last_issued
        waiting = self._waiting
        if last is not None and last in waiting:
            return last
        heap = self._age_heap
        if len(heap) > 32 and len(heap) > 4 * len(waiting):
            # drop entries stranded by greedy grants (which bypass the
            # heap); insertion order of the dict keeps this deterministic
            heap[:] = [(w.age, i, w) for i, w in enumerate(waiting)]
            heapify(heap)
            self._heap_seq = len(heap)
        while True:
            warp = heap[0][2]
            heappop(heap)
            if warp in waiting:
                return warp

    def note_outcome(self, warp: WarpRuntime, hit: bool) -> None:
        """Hook for translation-outcome feedback (no-op for plain GTO)."""


class TranslationAwareIssuePort(GTOIssuePort):
    """GTO extended with translation-outcome feedback (the paper's
    future-work direction: translation-reuse-aware warp scheduling).

    The SM reports each warp's last L1 TLB outcome; arbitration keeps
    GTO's greedy rule but, when switching warps, prefers the oldest warp
    whose last access *hit* — warps in a translation-miss streak are
    deprioritized so they do not keep flooding the TLB while their
    misses resolve, giving hitting warps time to exploit their locality.
    """

    _uses_age_heap = False

    def __init__(self, sim: Simulator, issue_interval: float = 1.0) -> None:
        super().__init__(sim, issue_interval)
        self._missed_last: Dict[WarpRuntime, bool] = {}

    def note_outcome(self, warp: WarpRuntime, hit: bool) -> None:
        self._missed_last[warp] = not hit

    def _pick(self) -> WarpRuntime:
        last = self._last_issued
        waiting = self._waiting
        if last is not None and last in waiting:
            return last
        # single pass for the oldest hitting warp (ages are unique, so
        # strict < reproduces min()'s choice without building the list)
        missed = self._missed_last
        missed_get = missed.get
        best: Optional[WarpRuntime] = None
        best_age = 0
        for w in waiting:
            if not missed_get(w, False):
                age = w.age
                if best is None or age < best_age:
                    best = w
                    best_age = age
        if best is not None:
            return best
        return min(waiting, key=_AGE)
