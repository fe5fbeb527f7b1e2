"""Unit tests for the event queue."""

from repro.sim.events import Event, EventQueue


def test_push_pop_ordering_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, fired.append, (3,))
    q.push(1.0, fired.append, (1,))
    q.push(2.0, fired.append, (2,))
    times = [q.pop_due().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_same_time_fires_in_scheduling_order():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    second = q.push(1.0, lambda: None)
    third = q.push(1.0, lambda: None)
    assert q.pop_due() is first
    assert q.pop_due() is second
    assert q.pop_due() is third


def test_priority_breaks_time_ties():
    q = EventQueue()
    low = q.push(1.0, lambda: None, priority=5)
    high = q.push(1.0, lambda: None, priority=-5)
    assert q.pop_due() is high
    assert q.pop_due() is low


def test_len_excludes_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    e1.cancel()
    assert len(q) == 1


def test_cancelled_events_are_skipped_on_pop():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    e2 = q.push(2.0, lambda: None)
    e1.cancel()
    assert q.pop_due() is e2


def test_pop_due_stops_at_the_horizon_and_skips_cancelled():
    q = EventQueue()
    dead = q.push(1.0, lambda: None)
    due = q.push(2.0, lambda: None)
    later = q.push(5.0, lambda: None)
    dead.cancel()
    assert q.pop_due(3.0) is due
    # Beyond the horizon: nothing is removed, and the count stays exact.
    assert q.pop_due(3.0) is None
    assert len(q) == 1
    assert q.pop_due(5.0) is later  # the horizon itself is due
    assert q.pop_due() is None and len(q) == 0


def test_pop_due_on_an_empty_queue_is_none():
    assert EventQueue().pop_due() is None


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    e1.cancel()
    assert q.peek_time() == 2.0


def test_peek_time_empty_is_none():
    q = EventQueue()
    assert q.peek_time() is None


def test_bool_reflects_live_events():
    q = EventQueue()
    assert not q
    e = q.push(1.0, lambda: None)
    assert q
    e.cancel()
    assert not q


def test_clear():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.peek_time() is None


def test_compact_removes_garbage():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(100)]
    for e in events[:50]:
        e.cancel()
    q.compact()
    assert len(q) == 50
    assert q.pop_due().time == 50.0


def test_event_cancel_is_idempotent():
    e = Event(1.0, 0, 0, lambda: None, ())
    e.cancel()
    e.cancel()
    assert e.cancelled


def test_cancel_counts_only_events_still_in_the_heap():
    q = EventQueue()
    popped = q.push(1.0, lambda: None)
    assert q.pop_due() is popped
    live = q.push(2.0, lambda: None)
    popped.cancel()
    assert len(q) == 1
    assert q.peek_time() == 2.0
    live.cancel()
    live.cancel()
    assert len(q) == 0
    assert not q
    assert q.peek_time() is None


def test_auto_compaction_under_heavy_cancellation():
    q = EventQueue()
    q.MIN_COMPACT_SIZE = 8
    live = q.push(100.0, lambda: None)
    for i in range(64):
        e = q.push(float(i), lambda: None)
        e.cancel()
    assert len(q) == 1
    assert q.pop_due() is live
