"""Monotonic discrete-event queue.

The queue orders events by (time, priority, sequence-number).  The
sequence number guarantees a stable FIFO order for events scheduled at
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

A cancelled entry has ``entry[E_CALLBACK] is None``; it stays in the
heap and is dropped lazily when it reaches the top.  Popped and
lazily-dropped entries are recycled through a free pool (``seq`` is
reset to ``-1`` so a stale :class:`EventHandle` can never cancel a
recycled entry — the sequence number doubles as a generation tag — and
``args`` is reset to ``()`` so a pooled entry keeps no payload alive).

:meth:`run_batch` is the batched drain used by
:class:`~repro.engine.simulator.Simulator` when no sanitizer or stop
predicate is installed: it pops and runs up to a budget of events with
all loop state in locals, so the disabled-instrumentation path costs
nothing per event beyond the heap operation and the callback itself.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

#: heap entry layout (documented for the white-box sanitizer checkers)
E_TIME, E_PRIO, E_SEQ, E_CALLBACK, E_ARGS = 0, 1, 2, 3, 4


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`, usable to cancel.

    The handle snapshots the scheduled ``time`` and keeps a generation
    tag (the event's ``seq``); cancelling after the event already ran —
    or after its pooled entry was recycled for a newer event — is a
    safe no-op.
    """

    __slots__ = ("_entry", "_seq", "_time", "_cancelled")

    def __init__(self, entry: list, seq: int, time: float):
        self._entry = entry
        self._seq = seq
        self._time = time
        self._cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self._cancelled = True
        entry = self._entry
        if entry[2] == self._seq:
            entry[3] = None
            entry[4] = ()

    @property
    def time(self) -> float:
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class EventQueue:
    """A binary-heap event queue with stable ordering and cancellation.

    Events may only be scheduled at or after the current time (`now`);
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
        #: (telemetry sampling hook); ``None`` costs one check per event
        self.time_watcher: Optional[Callable[[float], Any]] = None
        #: optional :class:`~repro.sanitizer.core.Sanitizer` (set by its
        #: ``attach``); ``None`` costs one check per event, like the
        #: watcher — the queue only calls it on an actual breach or on a
        #: watcher invocation, never on the common path
        self.sanitizer = None

    def __len__(self) -> int:
        return sum(1 for e in self._heap if e[3] is not None)

    def schedule(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run at ``time``.

        ``priority`` breaks ties at equal time (lower runs first).
        Raises ``ValueError`` if ``time`` is in the past.
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
            # a pooled entry's args were already reset to () on pop
        else:
            entry = [time, priority, seq, callback, ()]
        heappush(self._heap, entry)
        return EventHandle(entry, seq, time)

    def post(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at ``time`` without a handle.

        Identical semantics to :meth:`schedule` minus cancellation
        support.  Hot components that never cancel use this to skip the
        :class:`EventHandle` allocation (tens of thousands of discarded
        handles per run showed up in profiles), and pass a method plus
        its arguments rather than a closure.
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

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback, priority)

    def snapshot(self, limit: int = 5) -> list:
        """(time, priority) of the next ``limit`` pending events, in order.

        Read-only diagnostic view used for livelock reports; does not
        advance the clock or drop cancelled entries from the heap.
        """
        live = sorted(
            (e[0], e[1], e[2]) for e in self._heap if e[3] is not None
        )
        return [(t, p) for t, p, _seq in live[:limit]]

    def pop_and_run(self) -> bool:
        """Pop the next event, advance the clock, and run its callback.

        Returns ``False`` when the queue is empty.
        """
        heap = self._heap
        pool = self._pool
        while True:
            if not heap:
                return False
            entry = heappop(heap)
            callback = entry[3]
            if callback is not None:
                break
            entry[2] = -1
            pool.append(entry)
        time = entry[0]
        args = entry[4]
        # recycle before running: the callback may schedule and reuse it
        entry[2] = -1
        entry[3] = None
        entry[4] = ()
        pool.append(entry)
        sanitizer = self.sanitizer
        if sanitizer is not None and time < self.now:
            # per-event monotonicity: raises SanitizerError
            sanitizer.check_pop(time, self.now)
        advanced = time > self.now
        self.now = time
        watcher = self.time_watcher
        if watcher is not None and advanced:
            if sanitizer is not None:
                # watcher calls must be strictly increasing in time
                sanitizer.check_watch(time)
            # observe the new cycle *before* its first event mutates state
            watcher(time)
        callback(*args)
        return True

    def run_batch(self, budget: int, tally=None) -> int:
        """Pop and run up to ``budget`` events in a tight loop.

        The batched fast path of :meth:`Simulator.run
        <repro.engine.simulator.Simulator.run>`: callable only when no
        sanitizer is attached (the caller guarantees it), so the loop
        carries no per-event instrumentation checks beyond the time
        watcher.  ``tally``, when given, is an object whose
        ``_events_run`` attribute is incremented after each callback
        returns — the Simulator passes itself so ``note_progress`` marks
        placed inside callbacks see the exact event count they would
        under the per-event loop (which also counts an event only after
        running it).  Returns the number of events actually run;
        a return value short of ``budget`` means the queue drained.
        """
        heap = self._heap
        pool = self._pool
        pool_append = pool.append
        pop = heappop
        # local clock shadow: callbacks never advance the clock (only
        # event pops do, and they cannot nest), so ``now`` stays in sync
        # and same-cycle events skip the attribute store entirely
        now = self.now
        n = 0
        while n < budget:
            if not heap:
                break
            entry = pop(heap)
            callback = entry[3]
            if callback is None:
                entry[2] = -1
                pool_append(entry)
                continue
            time = entry[0]
            args = entry[4]
            entry[2] = -1
            entry[3] = None
            entry[4] = ()
            pool_append(entry)
            if time > now:
                watcher = self.time_watcher
                if watcher is not None:
                    watcher(time)
                now = time
                self.now = time
            callback(*args)
            n += 1
            if tally is not None:
                tally._events_run += 1
        return n
