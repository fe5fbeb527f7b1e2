"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing integer assigned at scheduling time, which makes
the simulation fully deterministic: two events scheduled for the same instant
fire in scheduling order, regardless of heap internals.

Cancellation is *lazy*: a cancelled event stays in the heap but is skipped
when popped.  This is the standard trick for binary-heap event queues; it
keeps cancellation O(1) at the cost of a little heap garbage, which
:meth:`EventQueue.compact` can reclaim when the garbage ratio grows.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional


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

    # Heap ordering ------------------------------------------------------
    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

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
        self._heap: list[Event] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` and return the event handle."""
        event = Event(time, priority, self._seq, fn, args)
        event._queue = self
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises :class:`IndexError` when no live events remain.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._queue = None
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        if self._heap:
            return self._heap[0].time
        return None

    def _maybe_compact(self) -> None:
        if (
            len(self._heap) >= self.MIN_COMPACT_SIZE
            and self._cancelled > len(self._heap) * self.GARBAGE_RATIO
        ):
            self.compact()

    def compact(self) -> None:
        """Physically remove cancelled events and re-heapify."""
        self._heap = [e for e in self._heap if not e.cancelled]
        self._cancelled = 0
        heapq.heapify(self._heap)

    def clear(self) -> None:
        """Drop every pending event."""
        for event in self._heap:
            event._queue = None
        self._heap.clear()
        self._cancelled = 0

    def iter_pending(self) -> Iterator[Event]:
        """Iterate over live events in arbitrary (heap) order."""
        return (e for e in self._heap if not e.cancelled)
