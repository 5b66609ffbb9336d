"""Unit tests for the discrete-event queue."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.engine.errors import SanitizerError
from repro.engine.event_queue import EventQueue
from repro.sanitizer.core import Sanitizer


def drain(q):
    while q.run_batch(4):
        pass


def test_events_run_in_time_order():
    q = EventQueue()
    order = []
    q.post(5.0, order.append, "b")
    q.post(1.0, order.append, "a")
    q.post(9.0, order.append, "c")
    drain(q)
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    q = EventQueue()
    order = []
    for i in range(10):
        q.post(3.0, order.append, i)
    drain(q)
    assert order == list(range(10))


def test_priority_breaks_ties():
    q = EventQueue()
    order = []
    q.post(1.0, order.append, "late", priority=1)
    q.post(1.0, order.append, "early", priority=-1)
    drain(q)
    assert order == ["early", "late"]


def test_now_advances_with_events():
    q = EventQueue()
    seen = []
    q.post(2.0, lambda: seen.append(q.now))
    q.post(7.0, lambda: seen.append(q.now))
    drain(q)
    assert seen == [2.0, 7.0]
    assert q.now == 7.0


def test_cannot_schedule_in_the_past():
    q = EventQueue()
    q.post(5.0, lambda: None)
    q.run_batch(1)
    with pytest.raises(ValueError):
        q.post(4.0, lambda: None)


def test_events_scheduled_during_execution_run():
    q = EventQueue()
    order = []
    q.post(1.0, lambda: (order.append("first"),
                         q.post(1.0, order.append, "nested")))
    drain(q)
    assert order == ["first", "nested"]


def test_pop_on_empty_returns_false():
    assert not EventQueue().run_batch(1)


def test_watcher_sees_each_new_cycle_before_its_events():
    q = EventQueue()
    log = []
    q.time_watcher = lambda t: log.append(("watch", t))
    for t in (1.0, 1.0, 3.0):
        q.post(t, log.append, ("event", t))
    drain(q)
    assert log == [("watch", 1.0), ("event", 1.0), ("event", 1.0),
                   ("watch", 3.0), ("event", 3.0)]


def test_snapshot_lists_next_pending_events_in_order():
    q = EventQueue()
    for t, prio in [(4.0, 0), (2.0, 1), (2.0, -1), (9.0, 0)]:
        q.post(t, lambda: None, priority=prio)
    assert q.snapshot(limit=3) == [(2.0, -1), (2.0, 1), (4.0, 0)]
    assert len(q) == 4


def _push_past_entry(q, ran):
    # bypass post()'s guard, as a corrupted heap would
    heapq.heappush(q._heap, [q.now - 1.0, 0, -1, ran.append, ("past",)])


def test_sanitized_drain_raises_on_past_event():
    q = EventQueue()
    q.sanitizer = Sanitizer("strict")
    ran = []
    q.post(5.0, ran.append, "on time")
    q.run_batch(1)
    _push_past_entry(q, ran)
    with pytest.raises(SanitizerError) as info:
        q.run_batch(1)
    assert info.value.tag == "queue.past_event"
    assert ran == ["on time"]
    assert q.now == 5.0


def test_unsanitized_past_event_runs_without_moving_the_clock():
    q = EventQueue()
    ran = []
    q.post(5.0, ran.append, "on time")
    q.run_batch(1)
    _push_past_entry(q, ran)
    assert q.run_batch(1) == 1
    assert ran == ["on time", "past"]
    assert q.now == 5.0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    q = EventQueue()
    popped = []
    for t in times:
        q.post(t, popped.append, t)
    drain(q)
    assert popped == sorted(times)
    assert len(popped) == len(times)
