"""Monotonic discrete-event queue.

The queue orders events by (time, priority, sequence-number).  The
sequence number guarantees a stable FIFO order for events posted at
the same time with the same priority, which keeps simulations
deterministic regardless of callback identity (callables are never
compared).

Hot-path representation
-----------------------
Heap entries are plain mutable lists ``[time, priority, seq, callback,
args]`` rather than objects: CPython compares lists element-wise in C, so
a heap sift never enters a Python ``__lt__`` frame (the previous
dataclass ordering built two tuples per comparison and dominated the
event loop's profile).  The unique ``seq`` guarantees the comparison
always resolves before reaching the callback slot.  An event runs as
``callback(*args)``: components post a method plus its int arguments
instead of a closure, so the per-transaction path allocates no
function, closure tuple or cells for the cyclic collector to track.

Popped entries are recycled through a free pool with ``callback`` reset
to ``None`` and ``args`` to ``()``, so a pooled entry keeps neither a
component's bound method nor a payload alive (a finished machine leaves
no reference cycle through the queue).

:meth:`run_batch` is the only drain: it pops and runs up to a budget of
events with all loop state in locals.  The sanitizer's per-event checks
sit on the clock-change branch, so a same-cycle event costs nothing
beyond the heap operation and the callback itself, sanitized or not.
"""

from __future__ import annotations

from heapq import heappop, heappush, nsmallest
from typing import Any, Callable, List, Optional

#: heap entry layout (documented for the white-box sanitizer checkers)
E_TIME, E_PRIO, E_SEQ, E_CALLBACK, E_ARGS = 0, 1, 2, 3, 4


class EventQueue:
    """A binary-heap event queue with stable ordering.

    Events may only be posted at or after the current time (`now`);
    the queue enforces monotonicity so components cannot accidentally
    schedule work in the past.
    """

    def __init__(self) -> None:
        self._heap: List[list] = []
        #: recycled entry lists (event pooling): bounds steady-state
        #: allocation to zero however many events a run churns through
        self._pool: List[list] = []
        self._seq = 0
        #: current simulation time (time of the last popped event).
        #: Treat as read-only: a plain attribute rather than a property
        #: because hot components read it per event and the descriptor
        #: stack (property → property) was measurable.
        self.now = 0.0
        #: optional ``callback(now)`` invoked whenever the clock advances
        #: (telemetry sampling hook); ``None`` costs one check per advance
        self.time_watcher: Optional[Callable[[float], Any]] = None
        #: optional :class:`~repro.sanitizer.core.Sanitizer` (set by its
        #: ``attach``); the drain consults it only when the clock changes
        self.sanitizer = None

    def __len__(self) -> int:
        return len(self._heap)

    def post(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` to run at ``time``.

        ``priority`` breaks ties at equal time (lower runs first).
        Raises ``ValueError`` if ``time`` is in the past.  Components
        pass a method plus its arguments rather than a closure.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = time
            entry[1] = priority
            entry[2] = seq
            entry[3] = callback
            entry[4] = args
        else:
            entry = [time, priority, seq, callback, args]
        heappush(self._heap, entry)

    def snapshot(self, limit: int = 5) -> list:
        """(time, priority) of the next ``limit`` pending events, in order.

        Read-only diagnostic view used for livelock reports; does not
        advance the clock.
        """
        return [(e[0], e[1]) for e in nsmallest(limit, self._heap)]

    def run_batch(self, budget: int, tally=None) -> int:
        """Pop and run up to ``budget`` events in a tight loop.

        ``tally``, when given, is an object whose ``_events_run``
        attribute is incremented after each callback returns — the
        :class:`~repro.engine.simulator.Simulator` passes itself so
        ``note_progress`` marks placed inside callbacks record exact
        event indices.  Returns the number of events actually run; a
        return value short of ``budget`` means the queue drained.

        When the clock advances, the time watcher observes the new cycle
        before its first event runs; with a sanitizer attached the
        watcher call is first checked for order.  An event behind the
        clock raises ``queue.past_event`` under a sanitizer; without
        one it runs without moving the clock back.
        """
        heap = self._heap
        pool_append = self._pool.append
        pop = heappop
        sanitizer = self.sanitizer
        # local clock shadow: callbacks never advance the clock (only
        # event pops do, and they cannot nest), so ``now`` stays in sync
        # and same-cycle events skip the attribute store entirely
        now = self.now
        n = 0
        while n < budget and heap:
            entry = pop(heap)
            time = entry[0]
            callback = entry[3]
            args = entry[4]
            # recycle before running: the callback may post and reuse it
            entry[3] = None
            entry[4] = ()
            pool_append(entry)
            if time != now:
                if time > now:
                    watcher = self.time_watcher
                    if watcher is not None:
                        if sanitizer is not None:
                            sanitizer.check_watch(time)
                        watcher(time)
                    now = time
                    self.now = time
                elif sanitizer is not None:
                    sanitizer.check_pop(time, now)
            callback(*args)
            n += 1
            if tally is not None:
                tally._events_run += 1
        return n
