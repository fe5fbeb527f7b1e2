"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing integer assigned at scheduling time, which makes
the simulation fully deterministic: two events scheduled for the same instant
fire in scheduling order, regardless of heap internals.  The heap holds
``(time, priority, seq, event)`` tuples, so :mod:`heapq` orders them with
C-level tuple comparison; ``seq`` is unique, so the comparison never reaches
the :class:`Event` itself.

Cancellation is *lazy*: a cancelled event stays in the heap but is skipped
when popped.  This is the standard trick for binary-heap event queues; it
keeps cancellation O(1) at the cost of a little heap garbage, which
:meth:`EventQueue.compact` can reclaim when the garbage ratio grows.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Instances are created by :class:`~repro.sim.engine.Simulator.schedule`;
    user code normally only holds on to them in order to :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: The queue whose heap holds this event; None before it is pushed
        #: and once it has fired or been dropped, so only a cancellation
        #: that leaves a dead heap entry behind is counted.
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it.  Idempotent, and a no-op
        for the queue's accounting once the event has fired."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._cancelled += 1
            queue._maybe_compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} {name} [{state}]>"


class EventQueue:
    """Deterministic binary-heap priority queue of :class:`Event` objects."""

    #: Compact the heap when more than this fraction of entries are dead.
    GARBAGE_RATIO = 0.5
    #: ... but never bother compacting heaps smaller than this.
    MIN_COMPACT_SIZE = 4096

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` and return the event handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, fn, args)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop_due(self, until: Optional[float] = None) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when no
        live event remains or the earliest lies beyond ``until``."""
        heap = self._heap
        while heap:
            time, _, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
            elif until is not None and time > until:
                return None
            else:
                heapq.heappop(heap)
                event._queue = None
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _maybe_compact(self) -> None:
        if (
            len(self._heap) >= self.MIN_COMPACT_SIZE
            and self._cancelled > len(self._heap) * self.GARBAGE_RATIO
        ):
            self.compact()

    def compact(self) -> None:
        """Physically remove cancelled events and re-heapify."""
        self._heap = [e for e in self._heap if not e[3].cancelled]
        self._cancelled = 0
        heapq.heapify(self._heap)

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._cancelled = 0
