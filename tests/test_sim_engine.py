"""Unit tests for the simulation engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_executed == 0


def test_schedule_and_run_to_quiescence():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    end = sim.run()
    assert fired == ["a", "b"]
    assert end == 2.0
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_horizon_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    end = sim.run(until=5.0)
    assert fired == [1]
    assert end == 5.0
    assert sim.pending_events == 1
    # Resuming picks up where we left off.
    sim.run()
    assert fired == [1, 10]


def test_run_on_empty_queue_keeps_clock():
    # Draining (or starting empty) must NOT advance the clock to the
    # horizon: convergence times are read straight off sim.now.
    sim = Simulator()
    end = sim.run(until=3.0)
    assert end == 0.0
    assert sim.now == 0.0
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=3.0) == 1.0


def test_run_stopping_on_horizon_advances_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    assert sim.run(until=3.0) == 3.0
    assert sim.now == 3.0


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    # A spent budget alone leaves the clock at the last executed event.
    assert sim.run(max_events=4) == 4.0
    assert fired == [0, 1, 2, 3]
    assert sim.pending_events == 6
    # Both limits live, the budget spent short of the horizon: likewise.
    assert sim.run(until=8.5, max_events=2) == 6.0
    assert fired == [0, 1, 2, 3, 4, 5]
    # Both reached together (next event at 9.0): the horizon wins and
    # advances the clock, as it does on a budget that was never touched.
    assert sim.run(until=8.5, max_events=2) == 8.5
    assert fired == [0, 1, 2, 3, 4, 5, 6, 7]
    assert sim.run(until=8.75, max_events=0) == sim.now == 8.75
    assert sim.pending_events == 2


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 0


def test_cancelling_a_fired_event_does_not_hide_later_events():
    # The handle of an event that already ran no longer occupies a heap
    # slot, so cancelling it must not be counted against the live events.
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "f")
    sim.run()
    sim.schedule(1.0, fired.append, "g")
    sim.cancel(first)
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["f", "g"]


def test_event_cancel_called_directly_keeps_the_count_exact():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    event.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["y"]
    assert sim.pending_events == 0


def test_cancel_after_reset_is_not_counted():
    sim = Simulator()
    stale = sim.schedule(1.0, lambda: None)
    sim.reset()
    fired = []
    sim.schedule(1.0, fired.append, "g")
    sim.cancel(stale)
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["g"]


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.run(max_events=1) == 1.0
    assert fired == [1]
    assert sim.run(max_events=1) == 2.0
    # Quiescent: nothing left to execute.
    assert sim.run(max_events=1) == 2.0
    assert fired == [1, 2]
    assert sim.events_executed == 2


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_reset_clears_events_and_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(5.0, lambda: None)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.events_executed == 0


def test_determinism_same_seed_same_trace():
    def run_once(seed):
        sim = Simulator(seed=seed)
        rng = sim.rng.get("x")
        values = []

        def draw():
            values.append(rng.random())
            if len(values) < 5:
                sim.schedule(rng.random(), draw)

        sim.schedule(0.1, draw)
        sim.run()
        return values, sim.now

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "late", priority=1)
    sim.schedule(1.0, fired.append, "early", priority=-1)
    sim.run()
    assert fired == ["early", "late"]
