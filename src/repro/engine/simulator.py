"""Simulation driver: owns the event queue and the stat registry."""

from __future__ import annotations

from typing import Callable, List

# tracer.py is dependency-free, so the engine importing it keeps the
# engine package the bottom layer (telemetry/__init__ is NOT imported)
from ..telemetry.tracer import NULL_TRACER
from .errors import LivelockError, SimulationError
from .event_queue import EventQueue
from .stats import StatRegistry

__all__ = ["SimulationError", "LivelockError", "Simulator"]

#: sentinel distinguishing "not passed" (consult REPRO_SANITIZE) from an
#: explicit ``sanitizer=None`` (force off, e.g. inside self-check suites
#: that must not inherit the environment)
_UNSET = object()


class Simulator:
    """Top-level simulation context.

    Components share one :class:`Simulator`: they post events with
    ``sim.queue.post`` and record statistics into its registry.  ``run()``
    drains the event queue until it is empty.

    Livelock protection is two-tiered.  Components that represent real
    forward progress (the GPU calls :meth:`note_progress` whenever a
    thread block completes) reset a sliding watchdog window; if
    ``progress_window`` events run without any progress mark the driver
    raises :class:`LivelockError` with a diagnostic summary of the
    pending event queue and whatever state the registered diagnostic
    hooks report.  ``max_events`` remains as a blunt hard backstop for
    models that never report progress at all.
    """

    def __init__(
        self,
        max_events: int = 500_000_000,
        progress_window: int = 5_000_000,
        tracer=None,
        sampler=None,
        sanitizer=_UNSET,
    ) -> None:
        self.queue = EventQueue()
        self.stats = StatRegistry()
        #: telemetry event tracer; NULL_TRACER (enabled=False) when off.
        #: Components cache ``tracer if tracer.enabled else None`` so the
        #: disabled hot path is one attribute check, no calls.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional TimeSeriesSampler; drives itself off the event
        #: queue's time watcher, so ``None`` adds no per-event work here
        self.sampler = sampler
        if sampler is not None:
            sampler.attach(self)
        if sanitizer is _UNSET:
            # default from REPRO_SANITIZE so an exported env var
            # sanitizes everything built on top (including the test
            # suite) without threading a flag through every call site
            from ..sanitizer.core import Sanitizer

            sanitizer = Sanitizer.from_env()
        #: runtime invariant checker; ``None`` runs unsanitized
        self.sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.attach(self)
        self.max_events = max_events
        #: events allowed since the last :meth:`note_progress` mark
        self.progress_window = progress_window
        self._events_run = 0
        self._last_progress_event = 0
        self._progress_marks = 0
        self._diagnostic_hooks: List[Callable[[], str]] = []

    @property
    def now(self) -> float:
        return self.queue.now

    @property
    def events_run(self) -> int:
        return self._events_run

    @property
    def progress_marks(self) -> int:
        return self._progress_marks

    def note_progress(self) -> None:
        """Record a unit of real forward progress (resets the watchdog)."""
        self._progress_marks += 1
        self._last_progress_event = self._events_run

    def add_diagnostic_hook(self, hook: Callable[[], str]) -> None:
        """Register a callback whose string output is appended to
        livelock diagnostics (e.g. per-SM occupancy summaries)."""
        self._diagnostic_hooks.append(hook)

    def livelock_diagnostics(self) -> str:
        """Summarize pending events and component state for debugging."""
        pending = len(self.queue)
        lines = [
            f"t={self.queue.now:.1f} events_run={self._events_run} "
            f"progress_marks={self._progress_marks} "
            f"events_since_progress="
            f"{self._events_run - self._last_progress_event}",
            f"pending events: {pending}",
        ]
        head = self.queue.snapshot(limit=5)
        if head:
            lines.append(
                "next events: "
                + ", ".join(f"(t={t:.1f}, prio={p})" for t, p in head)
            )
        for hook in self._diagnostic_hooks:
            try:
                lines.append(hook())
            except Exception as exc:  # diagnostics must never mask the error
                lines.append(f"<diagnostic hook failed: {exc}>")
        return "\n".join(lines)

    def run(self) -> float:
        """Run events until the queue drains; returns the final time.

        Raises :class:`LivelockError` if no forward progress is noted
        across ``progress_window`` events or the hard ``max_events``
        budget is exhausted — both almost always indicate a livelock in
        a component model.
        """
        queue = self.queue
        sanitizer = self.sanitizer
        sweep_at = (
            self._events_run + sanitizer.sweep_interval
            if sanitizer is not None
            else None
        )
        while True:
            # Each batch ends at the nearest deadline: one event past the
            # watchdog or max_events limit (where the check raises), or
            # exactly at the next sanitizer sweep.  Progress marks only
            # push the watchdog deadline later, so every check fires on
            # the same event index as it would after each single event.
            budget = (
                self._last_progress_event
                + self.progress_window
                - self._events_run
                + 1
            )
            hard_cap = self.max_events - self._events_run + 1
            if hard_cap < budget:
                budget = hard_cap
            if sweep_at is not None and sweep_at - self._events_run < budget:
                budget = sweep_at - self._events_run
            # run_batch maintains self._events_run itself (the tally)
            if queue.run_batch(budget, self) < budget:
                break
            if sweep_at is not None and self._events_run >= sweep_at:
                sanitizer.sweep(self)
                sweep_at = self._events_run + sanitizer.sweep_interval
            if (
                self._events_run - self._last_progress_event
                > self.progress_window
            ):
                raise LivelockError(
                    f"no forward progress across {self.progress_window} "
                    f"events\n{self.livelock_diagnostics()}"
                )
            if self._events_run > self.max_events:
                raise LivelockError(
                    f"exceeded event budget ({self.max_events}); likely "
                    f"livelock\n{self.livelock_diagnostics()}"
                )
        if sanitizer is not None:
            # conservation laws hold on the drained queue
            sanitizer.final(self)
        if self.sampler is not None:
            # close the last partial interval so the series covers the
            # whole run even when it ends between sample boundaries
            self.sampler.finalize(queue.now)
        return queue.now
