"""Hierarchical wall-clock spans for the orchestration runtime.

The event-loop profiler (:mod:`repro.obs.profiling`) only sees time spent
*inside* simulation handlers; everything around the simulations — pool
spin-up, topology pickling, store lookups, obs payload round-trips, fold
time — was invisible, which is exactly where a parallel run loses its
speedup.  This module is the paper's convergence-*delay* discipline
applied to the repo's own runtime: every orchestration step runs inside
a named span, and a single run can answer "where did the wall clock
go?".

Usage::

    from repro.obs.spans import record_spans, span

    with record_spans() as recorder:
        with span("campaign.cell", label="dynamic", x=0.1) as sp:
            ...
            sp.set(trials=12)
    print(recorder.render_rollup())
    recorder.write_chrome_trace("spans.json")   # load in Perfetto

Design points:

* **Near-zero cost when disabled.**  ``span()`` reads one module global;
  with no recorder installed it returns a shared no-op context manager —
  no allocation, no clock read, no contextvar touch.  The instrumented
  call sites therefore stay on every code path unconditionally.
* **Nesting via contextvars.**  The current span *path* lives in a
  :class:`~contextvars.ContextVar`, so nesting is correct across
  threads and ``contextvars.copy_context`` boundaries; a span's identity
  is its slash-joined path (``campaign.run/campaign.attempt/pool.run``).
* **Process-safe worker round-trip.**  A recorder's :meth:`records` are
  plain picklable dicts; :meth:`~SpanRecorder.absorb_records` folds a
  worker's records into the parent (grafted under a prefix), following
  the :meth:`repro.obs.metrics.MetricsRegistry.absorb_records` pattern.
  Timestamps are ``time.perf_counter`` values, which on Linux read the
  system-wide ``CLOCK_MONOTONIC`` — worker and parent spans share a
  timeline on the platforms the benchmarks run on.
* **Two exports.**  :meth:`~SpanRecorder.rollup` aggregates per-path
  count / total / mean / %-of-parent (the table ``--spans-out``
  prints); :meth:`~SpanRecorder.chrome_trace` emits Chrome trace-event
  JSON loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

__all__ = [
    "NOOP_SPAN",
    "RollupRow",
    "Span",
    "SpanRecorder",
    "active_recorder",
    "record_spans",
    "span",
]

#: The installed recorder (None = spans disabled).  A plain module global,
#: not a contextvar: the disabled check must be a single dict-free load.
_RECORDER: Optional["SpanRecorder"] = None

#: Slash-joined path of the innermost open span ("" at top level).
_PATH: ContextVar[str] = ContextVar("repro_span_path", default="")


def active_recorder() -> Optional["SpanRecorder"]:
    """The recorder installed by the innermost :func:`record_spans`."""
    return _RECORDER


class _NoopSpan:
    """Shared do-nothing span returned while recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


#: The singleton no-op span (one object for the whole process).
NOOP_SPAN = _NoopSpan()


class Span:
    """One live span: a context manager that records itself on exit."""

    __slots__ = ("recorder", "name", "attrs", "path", "start", "_token")

    def __init__(
        self, recorder: "SpanRecorder", name: str, attrs: Dict[str, Any]
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.path = name
        self.start = 0.0
        self._token = None

    def __enter__(self) -> "Span":
        parent = _PATH.get()
        self.path = f"{parent}/{self.name}" if parent else self.name
        self._token = _PATH.set(self.path)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter()
        if self._token is not None:
            _PATH.reset(self._token)
        self.recorder._append(
            self.name, self.path, self.start, end - self.start, self.attrs
        )
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach (or update) attributes while the span is open."""
        self.attrs.update(attrs)
        return self


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """A context manager timing one named step (no-op when disabled).

    The returned object supports ``set(**attrs)`` to add attributes
    discovered mid-span (e.g. cache hit/miss, pool spin-up seconds).
    """
    recorder = _RECORDER
    if recorder is None:
        return NOOP_SPAN
    return Span(recorder, name, attrs)


@dataclass(frozen=True)
class RollupRow:
    """Aggregated cost of one span path."""

    path: str
    count: int
    total_seconds: float
    #: Fraction of the parent path's total (roots: of the recorder's
    #: wall-clock extent).  May exceed 1.0 for spans that overlap in
    #: wall time across worker processes — that excess *is* the
    #: parallelism.
    share_of_parent: float

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    @property
    def depth(self) -> int:
        return self.path.count("/")

    @property
    def mean_ms(self) -> float:
        return self.total_seconds / self.count * 1e3 if self.count else 0.0


class SpanRecorder:
    """Accumulates finished spans (from this process and from workers)."""

    def __init__(self) -> None:
        #: Finished spans as plain dicts: name, path, start, dur, pid, attrs.
        self.records: List[Dict[str, Any]] = []
        self.pid = os.getpid()

    def _append(
        self,
        name: str,
        path: str,
        start: float,
        dur: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.records.append(
            {
                "name": name,
                "path": path,
                "start": start,
                "dur": dur,
                "pid": self.pid,
                "attrs": dict(attrs) if attrs else {},
            }
        )

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Worker round-trip
    # ------------------------------------------------------------------
    def absorb_records(
        self, records: Iterable[Dict[str, Any]], prefix: str = ""
    ) -> None:
        """Fold exported records from another recorder into this one.

        ``prefix`` grafts the incoming span tree under a path segment
        (the parent session uses ``"workers"``), keeping worker spans
        distinguishable from the parent's own in the rollup.  Records
        are copied verbatim otherwise — timestamps, pids and attributes
        survive the round-trip losslessly.
        """
        for record in records:
            grafted = dict(record)
            if prefix:
                grafted["path"] = f"{prefix}/{record['path']}"
            self.records.append(grafted)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """Extent from the earliest span start to the latest span end."""
        if not self.records:
            return 0.0
        start = min(r["start"] for r in self.records)
        end = max(r["start"] + r["dur"] for r in self.records)
        return end - start

    def total(self, name: str) -> float:
        """Summed seconds of every span with this (leaf) name."""
        return sum(r["dur"] for r in self.records if r["name"] == name)

    def rollup(self) -> List[RollupRow]:
        """Per-path aggregation, parents before children (path order)."""
        totals: Dict[str, List[float]] = {}
        for record in self.records:
            cell = totals.setdefault(record["path"], [0, 0.0])
            cell[0] += 1
            cell[1] += record["dur"]
        wall = self.wall_seconds or 1.0
        rows = []
        for path in sorted(totals):
            count, total = totals[path]
            parent = path.rsplit("/", 1)[0] if "/" in path else None
            denom = totals[parent][1] if parent in totals else wall
            rows.append(
                RollupRow(
                    path=path,
                    count=int(count),
                    total_seconds=total,
                    share_of_parent=total / denom if denom else 0.0,
                )
            )
        return rows

    def render_rollup(self) -> str:
        """Human-readable rollup table (the `--spans-out` console view)."""
        rows = self.rollup()
        pids = {r["pid"] for r in self.records}
        lines = [
            f"span rollup: {len(self.records)} spans over "
            f"{self.wall_seconds:.3f} s wall, {len(pids)} process(es)",
            f"{'path':<52} {'count':>6} {'total s':>9} {'mean ms':>9} "
            f"{'% parent':>9}",
        ]
        known = {r.path for r in rows}
        for row in rows:
            parent = row.path.rsplit("/", 1)[0] if "/" in row.path else None
            # Orphan subtrees (grafted worker spans under "workers/") show
            # their full path — an indented leaf name would read as a
            # child of whatever row happens to sit above it.
            if parent is not None and parent not in known:
                label = row.path
            else:
                label = f"{'  ' * row.depth}{row.name}"
            if len(label) > 52:
                label = label[:49] + "..."
            lines.append(
                f"{label:<52} {row.count:>6} {row.total_seconds:>9.3f} "
                f"{row.mean_ms:>9.2f} {row.share_of_parent:>8.1%}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The records as a Chrome trace-event document (Perfetto-ready).

        Complete ``"X"`` (duration) events with microsecond timestamps
        rebased to the earliest span; one ``process_name`` metadata row
        per pid so worker lanes are labeled in the viewer.
        """
        t0 = min((r["start"] for r in self.records), default=0.0)
        events: List[Dict[str, Any]] = []
        for pid in sorted({r["pid"] for r in self.records}):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": pid,
                    "args": {
                        "name": (
                            "parent" if pid == self.pid else f"worker-{pid}"
                        )
                    },
                }
            )
        for record in self.records:
            args = {"path": record["path"]}
            args.update(record["attrs"])
            events.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": "repro",
                    "ts": round((record["start"] - t0) * 1e6, 3),
                    "dur": round(record["dur"] * 1e6, 3),
                    "pid": record["pid"],
                    "tid": record["pid"],
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.chrome_trace(), indent=1) + "\n",
            encoding="utf-8",
        )
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanRecorder spans={len(self.records)} pid={self.pid}>"


@contextmanager
def record_spans(
    recorder: Optional[SpanRecorder] = None,
) -> Iterator[SpanRecorder]:
    """Enable span recording for a ``with`` block.

    Pass an existing recorder to accumulate across several blocks (the
    CLI passes the ObsSession's); otherwise a fresh one is created and
    yielded.  Blocks nest: the innermost recorder wins, the previous one
    is restored on exit.

    The span *path* restarts at root for the block: a forked worker
    inherits the parent's contextvars (including whatever span was open
    at fork time — typically ``pool.submit``), so without the reset
    worker spans would graft under a stale parent path.
    """
    global _RECORDER
    active = recorder if recorder is not None else SpanRecorder()
    previous = _RECORDER
    _RECORDER = active
    token = _PATH.set("")
    try:
        yield active
    finally:
        _PATH.reset(token)
        _RECORDER = previous
