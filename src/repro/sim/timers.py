"""Restartable timers with RFC-1771-style jitter.

RFC 1771 (Sec 9.2.1.1) requires BGP timers — MinRouteAdvertisementInterval in
particular — to be jittered to avoid synchronized update waves: the configured
value is multiplied by a uniform random factor in [0.75, 1.0], i.e. "a
reduction of up to 25%", which is exactly how the paper describes its setup.

:class:`Timer` wraps an engine event with start/stop/restart semantics and an
optional :class:`Jitter` policy, so protocol code never touches raw events.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class Jitter:
    """Multiplicative jitter: duration is scaled by Uniform(low, high).

    The RFC-1771 default is ``Jitter(0.75, 1.0)``; ``Jitter(1.0, 1.0)``
    disables jitter entirely (useful in unit tests that need exact expiry
    times).
    """

    __slots__ = ("low", "high")

    def __init__(self, low: float = 0.75, high: float = 1.0) -> None:
        if not (0.0 < low <= high):
            raise ValueError(f"invalid jitter range [{low}, {high}]")
        self.low = low
        self.high = high

    def apply(self, duration: float, rng: random.Random) -> float:
        """Scale ``duration`` by a factor drawn from this jitter range."""
        if self.low == self.high:
            return duration * self.low
        return duration * rng.uniform(self.low, self.high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Jitter({self.low}, {self.high})"


class Timer:
    """A restartable one-shot timer.

    Parameters
    ----------
    sim:
        The owning simulator.
    callback:
        Called (with ``*args``) when the timer expires.
    jitter:
        Jitter policy applied to every ``start``; default RFC-1771.
    rng:
        Random stream used for jitter draws.  Required unless jitter is
        disabled.
    """

    __slots__ = ("sim", "callback", "args", "jitter", "rng", "_event")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[..., Any],
        *args: Any,
        jitter: Optional[Jitter] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.callback = callback
        self.args = args
        self.jitter = jitter if jitter is not None else Jitter()
        if rng is None and self.jitter.low != self.jitter.high:
            raise ValueError("a random stream is required for jittered timers")
        self.rng = rng
        self._event: Optional[Event] = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the timer is currently armed."""
        return self._event is not None and not self._event.cancelled

    # ------------------------------------------------------------------
    def start(self, duration: float) -> float:
        """Arm the timer for (jittered) ``duration`` seconds.

        Restarting a running timer cancels the previous expiry.  Returns the
        actual (post-jitter) duration used.
        """
        if duration < 0:
            raise ValueError(f"negative timer duration {duration!r}")
        self.stop()
        actual = self.jitter.apply(duration, self.rng) if self.rng else duration
        self._event = self.sim.schedule(actual, self._fire)
        return actual

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._event is not None and not self._event.cancelled:
            self.sim.cancel(self._event)
        self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires@{self._event.time:.6f}" if self.running else "idle"
        return f"<Timer {state}>"
