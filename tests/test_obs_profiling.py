"""Tests for event-loop profiling and the engine's on_event hook."""

import pytest

from repro.obs.profiling import EventLoopProfiler, handler_category
from repro.sim.engine import Simulator


def noop():
    pass


class Handler:
    def fire(self):
        pass


# ----------------------------------------------------------------------
# handler_category
# ----------------------------------------------------------------------
def test_handler_category_uses_qualname():
    assert handler_category(noop) == "noop"
    assert handler_category(Handler().fire) == "Handler.fire"


def test_handler_category_falls_back_to_type():
    class Callable_:
        def __call__(self):
            pass

    obj = Callable_()
    # Instances have no __qualname__; the type name is the category.
    assert handler_category(obj) == "Callable_"


# ----------------------------------------------------------------------
# Engine hook
# ----------------------------------------------------------------------
def test_hook_disabled_by_default():
    sim = Simulator(seed=0)
    assert sim.on_event is None
    sim.schedule(1.0, noop)
    sim.run()
    assert sim.events_executed == 1


def test_hook_sees_every_event():
    sim = Simulator(seed=0)
    seen = []
    sim.on_event = lambda event, elapsed: seen.append((event.fn, elapsed))
    for _ in range(5):
        sim.schedule(1.0, noop)
    sim.run()
    assert len(seen) == 5
    assert all(fn is noop for fn, _ in seen)
    assert all(elapsed >= 0.0 for _, elapsed in seen)


def test_hook_fires_in_step_mode():
    sim = Simulator(seed=0)
    seen = []
    sim.on_event = lambda event, elapsed: seen.append(event)
    sim.schedule(1.0, noop)
    sim.run(max_events=1)
    assert len(seen) == 1
    sim.run(max_events=1)  # quiescent: no event, no hook call
    assert len(seen) == 1


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def test_profiler_attach_is_idempotent():
    sim = Simulator(seed=0)
    profiler = EventLoopProfiler()
    profiler.attach(sim)
    hook = sim.on_event
    assert hook is not None
    profiler.attach(sim)  # re-attaching the same profiler is fine
    assert sim.on_event is hook


def test_profiler_refuses_to_clobber_foreign_hook():
    sim = Simulator(seed=0)
    sim.on_event = lambda event, elapsed: None
    with pytest.raises(ValueError):
        EventLoopProfiler().attach(sim)


def test_profiler_accumulates_by_category():
    sim = Simulator(seed=0)
    profiler = EventLoopProfiler()
    profiler.attach(sim)
    handler = Handler()
    for _ in range(3):
        sim.schedule(1.0, noop)
    for _ in range(2):
        sim.schedule(1.0, handler.fire)
    sim.run()
    assert profiler.total_events == 5
    by_cat = {r.category: r for r in profiler.report()}
    assert by_cat["noop"].events == 3
    assert by_cat["Handler.fire"].events == 2
    assert sum(r.share for r in profiler.report()) == pytest.approx(1.0)


def test_profiler_accumulates_across_simulators():
    profiler = EventLoopProfiler()
    for seed in (1, 2):
        sim = Simulator(seed=seed)
        profiler.attach(sim)
        sim.schedule(1.0, noop)
        sim.run()
    assert profiler.total_events == 2


def test_profiler_report_ordering_and_topk():
    profiler = EventLoopProfiler()
    profiler._stats = {"a": [1, 0.5], "b": [10, 2.0], "c": [5, 1.0]}
    profiler.total_events = 16
    profiler.total_seconds = 3.5
    rows = profiler.report()
    assert [r.category for r in rows] == ["b", "c", "a"]
    assert [r.category for r in profiler.report(top_k=2)] == ["b", "c"]
    assert rows[0].share == pytest.approx(2.0 / 3.5)
    assert rows[0].mean_us == pytest.approx(2.0 / 10 * 1e6)


def test_profiler_render_and_records():
    sim = Simulator(seed=0)
    profiler = EventLoopProfiler()
    profiler.attach(sim)
    for _ in range(4):
        sim.schedule(1.0, noop)
    sim.run()
    text = profiler.render(top_k=10)
    assert "noop" in text
    assert "4 events" in text
    records = profiler.records()
    assert records[0]["kind"] == "profile"
    assert records[0]["category"] == "noop"
    assert records[0]["events"] == 4


def test_events_per_second_degenerate():
    profiler = EventLoopProfiler()
    assert profiler.events_per_second == 0.0
