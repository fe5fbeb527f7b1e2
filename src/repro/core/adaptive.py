"""Failure-extent-adaptive MRAI — the paper's proposed future work.

Sec 5: *"a scheme that can accurately and quickly set the MRAI consistent
with the extent of failure without significant overhead is highly
desirable"*.  This module implements the obvious candidate:

Each node estimates the extent of the failure directly, as the number of
**distinct destinations whose routes changed** within a trailing window —
a large failure touches many destinations at every node almost
immediately, whereas queue length (the Sec 4.3 signal) only reacts once
the node is already overloaded.  The estimate indexes a calibration table
mapping failure extent to the per-extent optimal MRAI (the Fig 3 optima).

Like the paper's dynamic scheme, a value change only takes effect when a
timer is restarted; unlike it, the controller can jump straight to the
right level instead of climbing one step per threshold crossing — which is
exactly the response-time deficiency the paper notes for its queue-based
scheme ("it takes a while for the queues at the overloaded nodes to exceed
the upTh").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Sequence, Tuple

from repro.bgp.mrai import MRAIController, MRAIPolicy

#: Calibration: (minimum fraction of destinations changed, MRAI seconds).
#: Derived from the paper's per-failure-size optima on 120-node 70-30
#: topologies: 0.5 s for ~1-2.5% failures, 1.25 s around 5%, 2.25 s for
#: 10-20%.  Entries must be sorted by fraction ascending.
PAPER_CALIBRATION: Tuple[Tuple[float, float], ...] = (
    (0.00, 0.5),
    (0.04, 1.25),
    (0.08, 2.25),
)


class FailureExtentController(MRAIController):
    """Per-node controller driven by a destination-churn extent estimate."""

    __slots__ = ("calibration", "window", "total_destinations", "_events",
                 "_counts", "estimates")

    def __init__(
        self,
        calibration: Sequence[Tuple[float, float]],
        window: float,
        total_destinations: int,
    ) -> None:
        if not calibration:
            raise ValueError("calibration table must be non-empty")
        fracs = [f for f, __ in calibration]
        if fracs != sorted(fracs) or fracs[0] != 0.0:
            raise ValueError(
                "calibration must be ascending and start at fraction 0.0"
            )
        if window <= 0:
            raise ValueError("window must be positive")
        if total_destinations < 1:
            raise ValueError("total_destinations must be positive")
        self.calibration = tuple(calibration)
        self.window = window
        self.total_destinations = total_destinations
        #: (time, dest) events, oldest first.
        self._events: Deque[Tuple[float, int]] = deque()
        #: dest -> number of in-window events (distinct-dest bookkeeping).
        self._counts: Dict[int, int] = {}
        #: Count of extent estimates made (introspection for tests).
        self.estimates = 0

    # ------------------------------------------------------------------
    def on_destination_changed(self, dest: int, now: float) -> None:
        self._events.append((now, dest))
        self._counts[dest] = self._counts.get(dest, 0) + 1
        self._evict(now)

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        counts = self._counts
        while events and events[0][0] < horizon:
            __, dest = events.popleft()
            remaining = counts[dest] - 1
            if remaining:
                counts[dest] = remaining
            else:
                del counts[dest]

    def value(self) -> float:
        # `value()` is only consulted at timer restarts, which follow route
        # activity, so the event deque is fresh enough to read directly.
        observed = len(self._counts) / self.total_destinations
        self.estimates += 1
        chosen = self.calibration[0][1]
        for threshold, mrai in self.calibration:
            if observed >= threshold:
                chosen = mrai
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FailureExtentController(distinct={len(self._counts)}, "
            f"value={self.value():g})"
        )


class AdaptiveExtentMRAI(MRAIPolicy):
    """Network-wide policy: failure-extent-driven MRAI selection.

    Parameters
    ----------
    calibration:
        (extent fraction, MRAI) table; the per-extent optima from a
        Fig-3-style sweep.  Defaults to the paper's values.
    window:
        Trailing window for the churn estimate, seconds.  Must comfortably
        exceed one MRAI round so sustained churn is not forgotten between
        advertisements; 5 s works across the paper's scenarios.
    total_destinations:
        Number of prefixes in the network (used to normalize the extent).
    """

    def __init__(
        self,
        total_destinations: int,
        calibration: Sequence[Tuple[float, float]] = PAPER_CALIBRATION,
        window: float = 5.0,
    ) -> None:
        self.calibration = tuple(calibration)
        self.window = window
        self.total_destinations = total_destinations
        self.name = (
            "adaptive-extent("
            + ", ".join(f"{f:.0%}->{m:g}s" for f, m in self.calibration)
            + ")"
        )

    def controller_for(self, node_id: int, degree: int) -> MRAIController:
        return FailureExtentController(
            self.calibration, self.window, self.total_destinations
        )
