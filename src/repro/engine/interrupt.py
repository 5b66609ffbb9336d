"""Two-stage SIGINT/SIGTERM handling: graceful drain, then hard exit.

Every long-running CLI command installs a :class:`GracefulInterrupt`
around its sweep.  The first signal requests a *drain*: in raising mode
the handler raises :class:`~repro.engine.errors.InterruptedRunError`
straight out of the simulation loop, so the command can flush its
checkpoint and telemetry, mark unfinished cells ``FAILED(interrupted)``,
and exit with the interrupted exit code.  A second signal means the
drain itself is stuck and hard-exits with the conventional
``128 + signum`` status.

Flush paths that must not be torn by the *first* signal (checkpoint
close, trace merge) run inside :meth:`GracefulInterrupt.shield`, which
defers the raise until the shield is released.

Supervised workers ignore both signals (see
:func:`repro.engine.supervision._worker_main`): a terminal Ctrl-C
reaches the whole foreground process group, and the drain decision
belongs to the parent — a worker that died to the same SIGINT would
masquerade as a transient crash and be retried.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from typing import Iterator, Optional

from .errors import InterruptedRunError

#: signals that trigger a graceful drain
DRAIN_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: a same-signal repeat inside this window is one delivery, not an
#: escalation: senders like GNU timeout and process managers signal the
#: process group *and* the pid, and whether the kernel coalesces the
#: pair into one pending signal is a race — without the window the
#: duplicate randomly turns a graceful drain into a hard exit
DUPLICATE_WINDOW_SECONDS = 0.5


class GracefulInterrupt:
    """Context manager that converts the first signal into a drain.

    ``raising=True`` (the CLI default) raises
    :class:`InterruptedRunError` from the first signal so a sweep
    unwinds at the next bytecode boundary; ``raising=False`` only sets
    :attr:`requested`, and the loop is expected to check it between
    units of work.
    """

    def __init__(self, raising: bool = True) -> None:
        self.raising = raising
        #: a drain signal has been received
        self.requested = False
        #: the signal number that requested the drain
        self.signum: Optional[int] = None
        self._shielded = 0
        self._pending_raise = False
        self._previous = {}
        self._first_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "GracefulInterrupt":
        for sig in DRAIN_SIGNALS:
            self._previous[sig] = signal.signal(sig, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()

    # ------------------------------------------------------------------ #
    def _handle(self, signum, frame) -> None:
        if self.requested:
            if (
                signum == self.signum
                and self._first_at is not None
                and time.monotonic() - self._first_at
                < DUPLICATE_WINDOW_SECONDS
            ):
                return  # group + pid double-delivery of one send
            # second signal: the drain is stuck; bail out the POSIX way
            os._exit(128 + signum)
        self.requested = True
        self.signum = signum
        self._first_at = time.monotonic()
        if self.raising:
            if self._shielded:
                self._pending_raise = True
            else:
                raise InterruptedRunError(
                    f"interrupted by {signal.Signals(signum).name}; "
                    f"draining (second signal hard-exits)"
                )

    @contextlib.contextmanager
    def shield(self) -> Iterator[None]:
        """Defer the drain raise across a critical flush section."""
        self._shielded += 1
        try:
            yield
        finally:
            self._shielded -= 1
        if self._pending_raise and not self._shielded:
            self._pending_raise = False
            raise InterruptedRunError(
                "interrupted; drained critical section before unwinding"
            )

    def check(self) -> None:
        """Raise :class:`InterruptedRunError` if a drain was requested.

        For non-raising loops that still want the raising idiom at
        explicit cancellation points (e.g. between sweep cells).
        """
        if self.requested:
            raise InterruptedRunError(
                "interrupted; draining at a cancellation point"
            )
