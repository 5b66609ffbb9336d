"""Thread-block schedulers: baseline round-robin and TLB-thrashing-aware.

The GPU asks a dispatch lane's scheduler for an SM, among the SMs that
lane may use, whenever the lane has a TB to place (kernel launch fills
every slot; afterwards each TB completion frees one).  A plain machine
has one lane over every SM; a multi-tenant machine gives each
``exclusive`` tenant its own instance over its SM slice and shares one
instance among the ``shared-tlb``/``sub-entry`` tenants.  Per §II, the
baseline walks SMs round-robin and skips any without sufficient
resources.  The paper's scheduler (§IV-A, Fig 7) additionally
probes the :class:`~repro.core.status_table.TLBStatusTable`: the
round-robin candidate is accepted only if its instant L1 TLB miss rate is
low compared to the other SMs; otherwise the scheduler looks for another
low-miss-rate SM with free resources, falling back to the default
round-robin choice when none exists.  Neither scheduler throttles
parallelism: a TB is never delayed if any SM has a free slot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..telemetry.tracer import CAT_SCHED
from .status_table import TLBStatusTable


class TBScheduler:
    """Scheduler interface used by :class:`repro.arch.gpu.GPU`'s lanes."""

    #: telemetry state; ``None`` tracer keeps decisions un-instrumented
    _tracer = None
    _clock = None
    _track = 0

    def select_sm(self, sms: Sequence) -> Optional[object]:
        """Return the SM to receive the next TB, or ``None`` if no SM has
        a free slot."""
        raise NotImplementedError

    def bind_telemetry(self, tracer, clock) -> None:
        """Attach a tracer + cycle clock; policy subclasses emit instants
        on the shared ``scheduler`` lane for non-default decisions."""
        if tracer is None or not tracer.enabled:
            self._tracer = None
            return
        self._tracer = tracer
        self._clock = clock
        self._track = tracer.track("scheduler")


class RoundRobinScheduler(TBScheduler):
    """Baseline: round-robin over SMs, skipping full ones."""

    def __init__(self) -> None:
        self._next = 0

    def select_sm(self, sms: Sequence) -> Optional[object]:
        n = len(sms)
        for step in range(n):
            sm = sms[(self._next + step) % n]
            if sm.has_free_slot():
                self._next = (self._next + step + 1) % n
                return sm
        return None


class TLBAwareScheduler(TBScheduler):
    """Translation-reuse-aware TB scheduling (paper §IV-A).

    A candidate SM has a "low miss rate compared to other SMs" when its
    miss rate is at most the mean over the SMs that report one.
    """

    def __init__(self, num_sms: int, ema_alpha: float = 0.5) -> None:
        self.table = TLBStatusTable(num_sms, ema_alpha=ema_alpha)
        self._next = 0

    # ------------------------------------------------------------------ #
    def _rr_candidates(self, sms: Sequence) -> List:
        """SMs with a free slot, in round-robin probe order."""
        n = len(sms)
        out = []
        for step in range(n):
            sm = sms[(self._next + step) % n]
            if sm.has_free_slot():
                out.append(sm)
        return out

    def _advance_past(self, sms: Sequence, chosen) -> None:
        n = len(sms)
        for step in range(n):
            if sms[(self._next + step) % n] is chosen:
                self._next = (self._next + step + 1) % n
                return

    def select_sm(self, sms: Sequence) -> Optional[object]:
        candidates = self._rr_candidates(sms)
        if not candidates:
            return None
        # SMs stream their ⟨hits, total⟩ counters into the status table.
        self.table.refresh_from(sms)
        mean = self.table.mean_miss_rate()
        default = candidates[0]
        if mean is None:
            # No TLB traffic yet (kernel launch): behave like round-robin.
            self._advance_past(sms, default)
            return default
        chosen = None
        for sm in candidates:
            rate = self.table.miss_rate(sm.sm_id)
            if rate is None or rate <= mean:
                chosen = sm
                break
        tracer = self._tracer
        if chosen is None:
            # No low-miss-rate SM has room: fall back to default scheduling.
            chosen = default
            if tracer is not None:
                tracer.instant(
                    CAT_SCHED, "fallback", self._clock(), self._track,
                    {"sm": chosen.sm_id, "mean_miss": round(mean, 4)},
                )
        elif chosen is not default and tracer is not None:
            # The paper's mechanism actually fired: the thrashing
            # round-robin candidate was skipped for a low-miss-rate SM.
            tracer.instant(
                CAT_SCHED, "divert", self._clock(), self._track,
                {
                    "from": default.sm_id,
                    "to": chosen.sm_id,
                    "mean_miss": round(mean, 4),
                },
            )
        self._advance_past(sms, chosen)
        return chosen


def make_scheduler(kind, num_sms: int) -> TBScheduler:
    """Factory keyed by :class:`repro.arch.config.TBSchedulerKind`."""
    # Imported here to keep this module importable without the arch package.
    from ..arch.config import TBSchedulerKind

    if kind is TBSchedulerKind.ROUND_ROBIN:
        return RoundRobinScheduler()
    if kind is TBSchedulerKind.TLB_AWARE:
        return TLBAwareScheduler(num_sms)
    raise ValueError(f"unknown scheduler kind {kind!r}")
