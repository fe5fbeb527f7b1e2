"""The simulation engine.

:class:`Simulator` owns the clock, the event queue, the random streams and an
optional tracer.  It runs events strictly in timestamp order until the queue
drains (*quiescence*), a time horizon is reached, or an event budget is
exhausted.

Quiescence-driven termination is what makes convergence measurement natural:
a BGP network that has converged schedules no further events, so
``sim.run()`` returns exactly when the protocol has gone silent.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.trace import NullTracer, Tracer

#: Signature of the optional event-loop hook: ``(event, elapsed_seconds)``.
OnEventHook = Callable[[Event, float], None]


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams (see :class:`RandomStreams`).
        Two simulators built with the same seed and the same scheduling
        sequence produce bit-identical runs.
    tracer:
        Optional :class:`~repro.sim.trace.Tracer`; defaults to a no-op.

    :attr:`on_event` is an optional observability hook called after each
    executed event with ``(event, elapsed_wall_seconds)``; when unset the
    event loop takes a timing-free fast path.  It is sampled once per
    :meth:`run` call, so attach profilers *before* running.  See
    :class:`repro.obs.profiling.EventLoopProfiler`.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        #: Current simulation time in seconds; advanced by the event loop
        #: only.
        self.now = 0.0
        self._queue = EventQueue()
        self.rng = RandomStreams(seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.on_event: Optional[OnEventHook] = None
        self._events_executed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock & introspection
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, fn, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.  Idempotent."""
        event.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until quiescence, the ``until`` horizon, or ``max_events``.

        Returns the simulation time at which execution stopped.  When the
        queue *drains* the clock stays at the last executed event (so a
        convergence time can be read off directly and a later run still has
        its full horizon); when stopping *on the horizon* the clock advances
        to ``until`` so relative scheduling afterwards is anchored there.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        hook = self.on_event
        queue = self._queue
        # One decrement per event reaches zero only from a positive budget.
        budget = max_events if max_events is not None else -1
        try:
            while budget != 0:
                event = queue.pop_due(until)
                if event is None:
                    break
                self.now = event.time
                self._events_executed += 1
                budget -= 1
                if hook is None:
                    event.fn(*event.args)
                else:
                    start = perf_counter()
                    event.fn(*event.args)
                    hook(event, perf_counter() - start)
            # The horizon wins over a spent budget: whenever the next
            # event lies beyond it, the clock advances to it.
            next_time = queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self.now = max(self.now, until)
            return self.now
        finally:
            self._running = False

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Random streams are *not* reseeded; construct a new simulator for a
        statistically independent run.
        """
        self._queue.clear()
        self.now = 0.0
        self._events_executed = 0
