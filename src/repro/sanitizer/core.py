"""Sanitizer driver: checker registration, sweep cadence, violations.

A :class:`Sanitizer` is attached to one
:class:`~repro.engine.simulator.Simulator` and owns a set of *checkers*
— small objects components register at machine-build time.  Each checker
exposes:

* ``sweep(san, sim)`` — scan its component's structural invariants and
  call :meth:`Sanitizer.violation` on the first breach;
* optionally ``final(san, sim)`` — end-of-run conservation checks
  (zero outstanding walks, no resident TBs, ...);
* optionally ``injectors`` — a ``{tag: callable}`` dict of deliberate
  corruptions used by tests and CI to prove each invariant class is
  actually detected (see :data:`SANITIZE_INJECT_ENV`).

Two modes trade coverage for overhead:

* ``strict`` — structural sweeps every :data:`STRICT_SWEEP_INTERVAL`
  events plus queue monotonicity checks on every clock change;
* ``cheap`` — the same queue checks, but sweeps only every
  :data:`CHEAP_SWEEP_INTERVAL` events (plus the final pass).

A violation emits a telemetry instant (category ``sanitizer``) with the
full structural context when a tracer is live, then raises
:class:`~repro.engine.errors.SanitizerError` with a stable dotted tag —
so a sanitized sweep degrades the offending cell to
``FAILED(sanitizer:<tag>)`` and the CLI exits with code 9.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from ..engine.errors import ConfigError, SanitizerError

#: environment variable selecting the mode ("strict", "cheap", "off"/"0"/"")
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: environment variable naming one checker tag to deliberately violate
#: (fault-injection hook: the corruption is applied at the first sweep
#: and must then be caught *organically* by the registered checker)
SANITIZE_INJECT_ENV = "REPRO_SANITIZE_INJECT"

#: recognised mode names (aliases: "1" -> strict, "0"/"" -> off)
MODES = ("strict", "cheap", "off")

STRICT_SWEEP_INTERVAL = 4_096
CHEAP_SWEEP_INTERVAL = 262_144

#: tracer category for violation instants
CAT_SANITIZER = "sanitizer"


def normalize_mode(value: Optional[str]) -> Optional[str]:
    """Map a mode string (CLI flag or env value) to "strict"/"cheap"/None."""
    if value is None:
        return None
    text = value.strip().lower()
    if text in ("", "0", "off", "none", "false"):
        return None
    if text in ("1", "on", "true", "strict"):
        return "strict"
    if text == "cheap":
        return "cheap"
    raise ConfigError(
        f"unknown sanitizer mode {value!r}; choose from {list(MODES)}",
        field=SANITIZE_ENV_VAR,
    )


class Sanitizer:
    """Pluggable runtime invariant checker for one simulation."""

    def __init__(self, mode: str = "strict", inject: Optional[str] = None) -> None:
        normalized = normalize_mode(mode)
        if normalized is None:
            raise ValueError(
                "Sanitizer requires an active mode; use Sanitizer.from_env() "
                "or pass sanitizer=None to disable"
            )
        self.mode = normalized
        self.sweep_interval = (
            STRICT_SWEEP_INTERVAL if normalized == "strict" else CHEAP_SWEEP_INTERVAL
        )
        self._checkers: List[Any] = []
        self._injectors: Dict[str, Callable[[], None]] = {}
        #: tag scheduled for deliberate corruption at the first sweep
        self.inject_tag = inject
        self._injected = inject is None
        #: total sweeps executed (cadence/overhead tests)
        self.sweeps = 0
        #: violations raised (a sweep raises on the first one it finds)
        self.violations = 0
        # telemetry binding (attach); None keeps violation emission cheap
        self._tracer = None
        self._queue = None
        self._track = 0
        # queue-monotonicity state (clock-change path, see EventQueue)
        self._last_watch_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(cls, environ=None) -> Optional["Sanitizer"]:
        """Build a sanitizer from ``REPRO_SANITIZE`` (None when unset/off)."""
        env = environ if environ is not None else os.environ
        mode = normalize_mode(env.get(SANITIZE_ENV_VAR))
        if mode is None:
            return None
        return cls(mode, inject=env.get(SANITIZE_INJECT_ENV) or None)

    @classmethod
    def make(cls, mode: Optional[str], environ=None) -> Optional["Sanitizer"]:
        """Explicit mode (CLI flag) if given, else the environment."""
        normalized = normalize_mode(mode)
        if normalized is None:
            # an explicit "off" must win over the environment
            if mode is not None:
                return None
            return cls.from_env(environ)
        env = environ if environ is not None else os.environ
        return cls(normalized, inject=env.get(SANITIZE_INJECT_ENV) or None)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, sim) -> None:
        """Bind to a simulator: queue hook, telemetry lane, clock."""
        sim.queue.sanitizer = self
        tracer = sim.tracer
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
            self._queue = sim.queue
            self._track = tracer.track("sanitizer")

    def register(self, checker: Any) -> None:
        """Add a component checker (and collect its named injectors)."""
        self._checkers.append(checker)
        for tag, injector in getattr(checker, "injectors", {}).items():
            self._injectors[tag] = injector

    @property
    def known_injections(self) -> List[str]:
        return sorted(self._injectors)

    # ------------------------------------------------------------------ #
    # Violation reporting
    # ------------------------------------------------------------------ #
    def violation(
        self, tag: str, message: str, context: Optional[Dict[str, Any]] = None
    ) -> None:
        """Report an invariant breach: telemetry instant, then raise."""
        self.violations += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                CAT_SANITIZER, tag, self._queue.now, self._track, context or {}
            )
        detail = ""
        if context:
            detail = " [" + ", ".join(
                f"{k}={v!r}" for k, v in sorted(context.items())
            ) + "]"
        raise SanitizerError(f"sanitizer[{tag}]: {message}{detail}", tag=tag)

    # ------------------------------------------------------------------ #
    # Per-event queue checks (called from EventQueue.run_batch when the
    # clock changes; a same-cycle event is never checked)
    # ------------------------------------------------------------------ #
    def check_pop(self, event_time: float, now: float) -> None:
        """The popped event must never be in the simulated past."""
        if event_time < now:
            self.violation(
                "queue.past_event",
                "event queue popped an event before the current time",
                {"event_time": event_time, "now": now},
            )

    def check_watch(self, time: float) -> None:
        """Clock-advance watcher calls must be strictly increasing."""
        last = self._last_watch_time
        if last is not None and time <= last:
            self.violation(
                "queue.watcher_order",
                "time watcher invoked out of order",
                {"time": time, "previous": last},
            )
        self._last_watch_time = time

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def _apply_injection(self) -> None:
        tag = self.inject_tag
        injector = self._injectors.get(tag)
        if injector is None:
            raise ConfigError(
                f"unknown sanitizer injection {tag!r}; this machine "
                f"registers {self.known_injections}",
                field=SANITIZE_INJECT_ENV,
            )
        self._injected = True
        injector()

    def sweep(self, sim) -> None:
        """Run every registered structural checker once."""
        if not self._injected:
            self._apply_injection()
        self.sweeps += 1
        for checker in self._checkers:
            checker.sweep(self, sim)

    def final(self, sim) -> None:
        """End-of-run pass: one last sweep plus conservation finals."""
        self.sweep(sim)
        for checker in self._checkers:
            final = getattr(checker, "final", None)
            if final is not None:
                final(self, sim)
