"""Online statistics used by monitors and the analysis layer.

:class:`OnlineStats` is Welford's single-pass mean/variance accumulator.
:class:`SlidingWindowUtilization` measures the busy fraction of a single
server over a trailing window — the signal behind the paper's
"processor utilization" variant of the dynamic MRAI scheme (Sec 4.3).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, Tuple


class OnlineStats:
    """Single-pass mean / variance / min / max (Welford's algorithm)."""

    __slots__ = ("n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Fold one observation into the accumulator."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 with fewer than 2 points."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min if self.n else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineStats(n={self.n}, mean={self.mean:.6g}, sd={self.stdev:.6g})"


class SlidingWindowUtilization:
    """Busy-fraction of a single server over a trailing time window.

    The server reports ``(start, end)`` busy intervals via :meth:`add_busy`;
    :meth:`utilization` returns the fraction of the trailing ``window``
    seconds (ending at ``now``) during which the server was busy.  Intervals
    older than the window are evicted lazily.
    """

    __slots__ = ("window", "_intervals")

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._intervals: Deque[Tuple[float, float]] = deque()

    def add_busy(self, start: float, end: float) -> None:
        """Record a busy interval; intervals must be added in start order."""
        if end < start:
            raise ValueError(f"interval ends before it starts: ({start}, {end})")
        self._intervals.append((start, end))

    def utilization(self, now: float) -> float:
        """Busy fraction over [now - window, now], clipped to [0, 1]."""
        horizon = now - self.window
        while self._intervals and self._intervals[0][1] <= horizon:
            self._intervals.popleft()
        busy = 0.0
        for start, end in self._intervals:
            lo = max(start, horizon)
            hi = min(end, now)
            if hi > lo:
                busy += hi - lo
        return min(1.0, busy / self.window)
