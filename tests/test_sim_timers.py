"""Unit tests for jittered timers."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import Jitter, Timer


def make_timer(sim, fired, jitter=None):
    return Timer(
        sim,
        lambda: fired.append(sim.now),
        jitter=jitter or Jitter(1.0, 1.0),
        rng=sim.rng.get("t"),
    )


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    timer = make_timer(sim, fired)
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]
    assert not timer.running


def test_timer_stop_prevents_firing():
    sim = Simulator()
    fired = []
    timer = make_timer(sim, fired)
    timer.start(2.0)
    timer.stop()
    sim.run()
    assert fired == []


def test_stop_is_idempotent():
    sim = Simulator()
    timer = make_timer(sim, [])
    timer.stop()
    timer.start(1.0)
    timer.stop()
    timer.stop()
    assert not timer.running


def test_restart_supersedes_previous_expiry():
    sim = Simulator()
    fired = []
    timer = make_timer(sim, fired)
    timer.start(5.0)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0]


def test_timer_can_be_restarted_from_callback():
    sim = Simulator()
    fired = []

    def on_fire():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer = Timer(sim, on_fire, jitter=Jitter(1.0, 1.0))
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_running_tracks_start_stop_and_fire():
    sim = Simulator()
    timer = make_timer(sim, [])
    assert not timer.running
    timer.start(4.0)
    assert timer.running
    timer.stop()
    assert not timer.running
    timer.start(4.0)
    sim.run()
    assert not timer.running


def test_rfc1771_jitter_reduces_by_up_to_25_percent():
    sim = Simulator(seed=11)
    timer = Timer(sim, lambda: None, jitter=Jitter(), rng=sim.rng.get("j"))
    durations = [timer.start(10.0) for _ in range(200)]
    timer.stop()
    assert all(7.5 <= d <= 10.0 for d in durations)
    # The draws must actually vary.
    assert max(durations) - min(durations) > 0.5


def test_jitter_none_is_exact():
    sim = Simulator()
    timer = Timer(sim, lambda: None, jitter=Jitter(1.0, 1.0))
    assert timer.start(3.0) == 3.0
    timer.stop()


def test_jittered_timer_requires_rng():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timer(sim, lambda: None, jitter=Jitter(0.75, 1.0), rng=None)


def test_invalid_jitter_range_rejected():
    with pytest.raises(ValueError):
        Jitter(0.0, 1.0)
    with pytest.raises(ValueError):
        Jitter(1.0, 0.5)


def test_negative_duration_rejected():
    sim = Simulator()
    timer = make_timer(sim, [])
    with pytest.raises(ValueError):
        timer.start(-1.0)


def test_callback_args_passed_through():
    sim = Simulator()
    received = []
    timer = Timer(
        sim,
        lambda a, b: received.append((a, b)),
        "x",
        2,
        jitter=Jitter(1.0, 1.0),
    )
    timer.start(1.0)
    sim.run()
    assert received == [("x", 2)]
