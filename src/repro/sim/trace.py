"""Tracing and counting utilities.

The experiments in the paper report two kinds of observables: *times* (the
convergence delay) and *counts* (update messages generated).  The tracer
records timestamped protocol events when enabled; :class:`Counter` is the
always-on bag of named counters — a ``dict``, bumped with ``+=``.

Tracing is structured (records, not strings) so tests can assert on protocol
behaviour without parsing log text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union


class TraceRecord(NamedTuple):
    """One traced protocol event.

    A named tuple, so a buffered record pickles as four values, not as
    an object with its own state dict.
    """

    time: float
    category: str
    node: Optional[int]
    detail: Tuple[Any, ...] = ()

    def __str__(self) -> str:
        where = f"node={self.node}" if self.node is not None else "-"
        extras = " ".join(str(d) for d in self.detail)
        return f"[{self.time:12.6f}] {self.category:<18} {where} {extras}"

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (detail tuples become lists)."""
        return {
            "time": self.time,
            "category": self.category,
            "node": self.node,
            "detail": [
                list(d) if isinstance(d, tuple) else d for d in self.detail
            ],
        }


class JsonlSink:
    """A record sink writing each record as one JSON line.

    Takes :class:`TraceRecord` objects — it serves as the ``sink=``
    argument of :class:`Tracer` and of an
    :class:`~repro.obs.session.ObsSession`, and :func:`load_trace` reads
    the file back for ``trace analyze`` and ``dataplane report`` — or
    plain dicts (the metrics export).  Usable as a context manager::

        with JsonlSink("trace.jsonl") as sink:
            tracer = Tracer(sink=sink)
            ...
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self.records_written = 0

    def __call__(self, record: Union[TraceRecord, Dict[str, Any]]) -> None:
        if isinstance(record, TraceRecord):
            record = record.to_dict()
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")
        self.records_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Load a JSONL trace written by :class:`JsonlSink`.

    The one reader of every trace-shaped file (``--trace-out``,
    ``--dataplane-out``).  :meth:`TraceRecord.to_dict` wrote the detail
    tuple and the tuples inside it as lists; they come back as tuples,
    so a loaded record equals the one emitted.  Blank lines are skipped;
    a malformed (e.g. truncated) line, or one that is not a trace
    record, raises ``ValueError`` naming the line number — with the
    CLI's deterministic sink flushing a malformed line only happens for
    traces cut short externally.
    """
    records: List[TraceRecord] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line ({exc})"
                ) from None
            if not (
                isinstance(record, dict)
                and isinstance(record.get("detail", []), list)
                and isinstance(record.get("time"), (int, float))
                and isinstance(record.get("category"), str)
            ):
                raise ValueError(
                    f"{path}:{lineno}: not a trace record (an object with "
                    f"a numeric time, a category and a detail list)"
                )
            records.append(
                TraceRecord(
                    record["time"],
                    record["category"],
                    record.get("node"),
                    tuple(
                        tuple(d) if isinstance(d, list) else d
                        for d in record.get("detail", ())
                    ),
                )
            )
    return records


def malformed_record(
    path: Union[str, Path], record: TraceRecord, shape: str
) -> ValueError:
    """The refusal of a loaded record whose fields are not ``shape``.

    :func:`load_trace` checks only a record's outer shape; each reader
    checks the details of the categories it reads and words its refusal
    with this, so every offline report says it the same way.
    """
    detail = json.dumps(record.to_dict()["detail"])
    return ValueError(
        f"{path}: a {record.category} record at time {record.time:g} has "
        f"node {json.dumps(record.node)} and detail {detail}, not {shape}"
    )


class Tracer:
    """Collects :class:`TraceRecord` objects, optionally filtered by category.

    Parameters
    ----------
    categories:
        When given, only these categories are recorded; everything else is
        dropped at emit time.
    sink:
        Optional callable invoked with each accepted record (e.g. ``print``
        or a file writer); records are retained in memory either way.
    """

    #: Whether emitting is worth the caller's while; hot paths test this
    #: before building the arguments of :meth:`emit`.
    enabled = True

    def __init__(
        self,
        categories: Optional[set[str]] = None,
        sink: Optional[Callable[[TraceRecord], None]] = None,
    ) -> None:
        self.categories = categories
        self.sink = sink
        self.records: List[TraceRecord] = []

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        *detail: Any,
    ) -> None:
        """Record one event (subject to the category filter)."""
        if self.categories is not None and category not in self.categories:
            return
        record = TraceRecord(time, category, node, tuple(detail))
        self.records.append(record)
        if self.sink is not None:
            self.sink(record)


class NullTracer(Tracer):
    """A tracer that drops everything; the default for production runs."""

    enabled = False

    def emit(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        return


class Counter(dict):
    """Named integer counters: a ``dict`` whose missing names read 0.

    >>> c = Counter()
    >>> c["updates_sent"] += 1
    >>> c["updates_sent"] += 2
    >>> c["updates_sent"]
    3
    >>> c["never_bumped"]
    0
    """

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0

    def snapshot(self) -> Dict[str, int]:
        """A copy of the current counter values."""
        return dict(self)

    def diff(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Per-counter difference against an earlier :meth:`snapshot`."""
        keys = set(self) | set(baseline)
        return {k: self[k] - baseline.get(k, 0) for k in keys}
