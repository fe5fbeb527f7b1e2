"""Property-based tests for the simulation kernel (hypothesis)."""

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.stats import OnlineStats
from repro.sim.timers import Jitter


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=-3, max_value=3),
        ),
        max_size=200,
    )
)
def test_event_queue_pops_in_nondecreasing_time_order(items):
    q = EventQueue()
    for time, priority in items:
        q.push(time, lambda: None, priority=priority)
    popped = []
    while q:
        popped.append(q.pop_due())
    times = [e.time for e in popped]
    assert times == sorted(times)
    # Among equal times, (priority, seq) must be non-decreasing.
    for a, b in zip(popped, popped[1:]):
        if a.time == b.time:
            assert (a.priority, a.seq) < (b.priority, b.seq)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.booleans(),
        ),
        max_size=100,
    )
)
def test_event_queue_cancellation_accounting(items):
    q = EventQueue()
    live = 0
    for time, cancel in items:
        event = q.push(time, lambda: None)
        if cancel:
            event.cancel()
        else:
            live += 1
    assert len(q) == live
    count = 0
    while q:
        event = q.pop_due()
        assert not event.cancelled
        count += 1
    assert count == live


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_online_stats_matches_statistics_module(data):
    stats = OnlineStats()
    stats.extend(data)
    assert abs(stats.mean - statistics.fmean(data)) <= 1e-6 * max(
        1.0, abs(statistics.fmean(data))
    )
    expected_var = statistics.variance(data)
    assert abs(stats.variance - expected_var) <= 1e-6 * max(1.0, expected_var)
    assert stats.minimum == min(data)
    assert stats.maximum == max(data)


@given(
    st.floats(min_value=0.001, max_value=1000.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_jitter_stays_in_configured_band(duration, seed):
    import random

    jitter = Jitter(0.75, 1.0)
    rng = random.Random(seed)
    scaled = jitter.apply(duration, rng)
    assert 0.75 * duration <= scaled <= duration


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=30))
def test_rng_streams_deterministic(seed, name):
    a = RandomStreams(seed).get(name).random()
    b = RandomStreams(seed).get(name).random()
    assert a == b
