"""MRAI policies and controllers.

Two layers:

* :class:`MRAIPolicy` — a network-wide *configuration*: given a node (and
  its degree), produce the node's :class:`MRAIController`.  The constant
  policy lives here; the paper's degree-dependent and dynamic schemes are
  policies in :mod:`repro.core` (they are the contribution, the protocol
  layer only defines the interface they plug into).
* :class:`MRAIController` — per-node runtime object the speaker consults
  whenever a per-peer (or per-destination) MRAI timer is *restarted*; the
  paper's dynamic scheme deliberately never modifies running timers
  ("the change takes effect only when the timers are restarted").

Controllers also receive the monitoring signals the paper's dynamic schemes
use: queue-length samples (unfinished work), busy intervals (processor
utilization) and received-update ticks (message counting).
"""

from __future__ import annotations

import math


class MRAIController:
    """Per-node runtime MRAI source + overload-monitor hooks."""

    def value(self) -> float:
        """The MRAI (seconds, pre-jitter) to use for the next timer start."""
        raise NotImplementedError

    # Monitoring hooks (no-ops by default) ------------------------------
    def on_queue_sample(self, queue_len: int, now: float) -> None:
        """Called after every enqueue and every batch completion."""

    def on_busy_interval(self, start: float, end: float) -> None:
        """Called when the update processor finishes a busy period."""

    def on_update_received(self, now: float) -> None:
        """Called for every update message accepted into the queue."""

    def on_destination_changed(self, dest: int, now: float) -> None:
        """Called when the Loc-RIB selection for ``dest`` changes."""


class StaticController(MRAIController):
    """A fixed MRAI value."""

    __slots__ = ("_value",)

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError("MRAI must be non-negative")
        self._value = value

    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticController({self._value})"


class MRAIPolicy:
    """Factory of per-node controllers; identifies a scheme in reports."""

    #: Human-readable scheme name used in series labels.
    name: str = "mrai"

    def controller_for(self, node_id: int, degree: int) -> MRAIController:
        raise NotImplementedError


class ConstantMRAI(MRAIPolicy):
    """Every node uses the same MRAI — the Internet's default configuration.

    ``ConstantMRAI(30.0)`` is the RFC-1771 default the paper's earlier study
    used; the experiments here sweep 0.25-4 s.  ``ConstantMRAI(0.0)``
    disables rate limiting entirely (updates sent immediately, no timers).
    """

    def __init__(self, value: float) -> None:
        if not 0 <= value < math.inf:  # also refuses NaN
            raise ValueError(
                f"MRAI must be non-negative and finite, got {value!r}"
            )
        self.value = value
        self.name = f"mrai={value:g}s"

    def controller_for(self, node_id: int, degree: int) -> MRAIController:
        return StaticController(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantMRAI({self.value})"
