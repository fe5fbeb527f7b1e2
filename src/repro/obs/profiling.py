"""Wall-clock profiling of the simulator event loop.

"Makes a hot path measurably faster" requires measuring it.  The
:class:`~repro.sim.engine.Simulator` exposes an optional ``on_event`` hook:
when set, the engine wraps each handler invocation in ``perf_counter`` and
reports ``(event, elapsed_seconds)``.  :class:`EventLoopProfiler` is the
standard consumer: it buckets events by *handler category* (the callback's
qualified name — ``BGPSpeaker._complete_batch``, ``Timer._fire``, ...) and
accumulates counts and wall-clock time per category across any number of
simulator runs.

With no profiler attached the engine takes a branch-free fast path, so the
disabled-by-default cost is a single ``None`` check per ``run()`` call, not
per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


def handler_category(fn) -> str:
    """Stable name for an event callback (its qualified name)."""
    name = getattr(fn, "__qualname__", None)
    if name is not None:
        return name
    return type(fn).__name__


@dataclass(frozen=True)
class HandlerStats:
    """Accumulated cost of one handler category."""

    category: str
    events: int
    total_seconds: float
    share: float

    @property
    def mean_us(self) -> float:
        """Mean handler cost in microseconds."""
        return self.total_seconds / self.events * 1e6 if self.events else 0.0


class EventLoopProfiler:
    """Per-handler-category wall-clock accounting for the event loop.

    Usage::

        profiler = EventLoopProfiler()
        profiler.attach(network.sim)
        network.run_until_quiet()
        print(profiler.render(top_k=10))

    One profiler may be attached to several simulators in sequence (a
    sweep's trials, say); statistics accumulate across all of them.
    """

    def __init__(self) -> None:
        #: category -> [event count, total seconds]
        self._stats: Dict[str, List[float]] = {}
        self.total_events = 0
        self.total_seconds = 0.0
        #: The one bound-method object installed as the hook.  Attribute
        #: access creates a fresh bound method each time, so identity
        #: checks in attach/detach must go through this stable reference.
        self._hook = self._record

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Install this profiler as the simulator's ``on_event`` hook."""
        if sim.on_event is not None and sim.on_event is not self._hook:
            raise ValueError("simulator already has an on_event hook")
        sim.on_event = self._hook

    def _record(self, event: "Event", elapsed: float) -> None:
        cell = self._stats.get(handler_category(event.fn))
        if cell is None:
            cell = [0, 0.0]
            self._stats[handler_category(event.fn)] = cell
        cell[0] += 1
        cell[1] += elapsed
        self.total_events += 1
        self.total_seconds += elapsed

    def absorb_records(self, rows: Iterable[dict]) -> None:
        """Fold exported :meth:`records` rows from another profiler in.

        Used by the parallel backend: each worker profiles its own
        simulator and ships the rows home, so a sweep's profile covers
        every trial no matter which process ran it.
        """
        for row in rows:
            cell = self._stats.get(row["category"])
            if cell is None:
                cell = [0, 0.0]
                self._stats[row["category"]] = cell
            cell[0] += row["events"]
            cell[1] += row["total_seconds"]
            self.total_events += row["events"]
            self.total_seconds += row["total_seconds"]

    # ------------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Events executed per wall-clock second spent inside handlers."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.total_events / self.total_seconds

    def report(self, top_k: Optional[int] = None) -> List[HandlerStats]:
        """Categories ordered by total wall-clock cost, heaviest first."""
        total = self.total_seconds or 1.0
        rows = [
            HandlerStats(
                category=category,
                events=int(count),
                total_seconds=seconds,
                share=seconds / total,
            )
            for category, (count, seconds) in self._stats.items()
        ]
        rows.sort(key=lambda r: (-r.total_seconds, r.category))
        return rows[:top_k] if top_k is not None else rows

    def records(self) -> List[dict]:
        """Export-friendly dict rows (stable order)."""
        return [
            {
                "kind": "profile",
                "category": r.category,
                "events": r.events,
                "total_seconds": r.total_seconds,
                "share": r.share,
                "mean_us": r.mean_us,
            }
            for r in self.report()
        ]

    def top_categories(self, k: int = 5) -> List[dict]:
        """The ``k`` heaviest categories as plain manifest-ready dicts.

        This is what surfaces hotspots in the run manifest without
        anyone opening profile.txt: category, event count, total
        seconds, %-of-total share and mean us/event.
        """
        return [
            {
                "category": r.category,
                "events": r.events,
                "total_seconds": round(r.total_seconds, 6),
                "share": round(r.share, 4),
                "mean_us": round(r.mean_us, 3),
            }
            for r in self.report(k)
        ]

    def render(self, top_k: int = 10) -> str:
        """Human-readable top-k hotspot table."""
        rows = self.report(top_k)
        lines = [
            f"event-loop profile: {self.total_events} events, "
            f"{self.total_seconds:.3f} s in handlers "
            f"({self.events_per_second:,.0f} events/s)",
            f"{'category':<42} {'events':>10} {'total s':>9} "
            f"{'share':>7} {'mean us':>9}",
        ]
        for r in rows:
            lines.append(
                f"{r.category:<42} {r.events:>10} {r.total_seconds:>9.3f} "
                f"{r.share:>6.1%} {r.mean_us:>9.1f}"
            )
        if len(self._stats) > len(rows):
            lines.append(f"... and {len(self._stats) - len(rows)} more categories")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventLoopProfiler events={self.total_events} "
            f"categories={len(self._stats)}>"
        )
