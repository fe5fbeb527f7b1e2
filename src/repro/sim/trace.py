"""Tracing and counting utilities.

The experiments in the paper report two kinds of observables: *times* (the
convergence delay) and *counts* (update messages generated).  The tracer
records timestamped protocol events when enabled; :class:`Counter` is the
always-on bag of named counters — a ``dict``, bumped with ``+=``.

Tracing is structured (records, not strings) so tests can assert on protocol
behaviour without parsing log text.  Each category a run records declares
its shape once, in :data:`RECORD_SHAPES`, and :func:`load_trace` checks it.
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


#: The data-plane monitor's pair statuses (:mod:`repro.obs.dataplane`).
OK, LOOP, BLACKHOLE, DOWN = "ok", "loop", "blackhole", "down"
DATAPLANE_STATUSES = (OK, LOOP, BLACKHOLE, DOWN)


def _int(value: Any) -> bool:
    return type(value) is int


def _optional_int(value: Any) -> bool:
    return value is None or type(value) is int


def _number(value: Any) -> bool:
    return type(value) is int or type(value) is float


def _path(value: Any) -> bool:
    return value is None or (type(value) is tuple and all(map(_int, value)))


def _fields(detail: Tuple[Any, ...], *checks: Callable[[Any], bool]) -> bool:
    return len(detail) == len(checks) and all(
        check(value) for check, value in zip(checks, detail)
    )


class RecordShape(NamedTuple):
    """The declared shape of one record category: whether a record's
    ``(node, detail)`` has it, and the words a refusal quotes."""

    admits: Callable[[Any, Tuple[Any, ...]], bool]
    sentence: str


#: Every category a run records, with its shape.  :func:`load_trace`
#: refuses a record of one of these that is not its shape; a category
#: not declared here loads unchecked, and a reader skips what it does
#: not read.  A causality record is a send, whose node, peer and dest
#: key its wasted-update triple, or a failure injection, whose payload
#: is its scope; every emitter allocates its uid after its cause (a
#: root's cause is -1), so a cause below the uid keeps the cause forest
#: acyclic.
RECORD_SHAPES: Dict[str, RecordShape] = {
    "causality": RecordShape(
        lambda node, detail: _fields(
            detail,
            lambda kind: type(kind) is str,
            _int,
            _optional_int,
            _optional_int,
            _optional_int,
            lambda payload: payload is None or type(payload) is tuple,
        )
        and (detail[2] is None or detail[2] < detail[1])
        and (_int if detail[0] == "send" else _optional_int)(node),
        "detail [kind, uid, cause, dest, peer, payload] with a string kind, "
        "an integer uid, an integer or null cause, dest and peer, the cause "
        "below the uid, a list or null payload, and an integer node on a "
        "send",
    ),
    "route_change": RecordShape(
        lambda node, detail: _int(node) and _fields(detail, _int, _path),
        "an integer node and detail [dest, null or [asn, ...]]",
    ),
    "dataplane_trial": RecordShape(
        lambda node, detail: _fields(detail, _int, _number),
        "detail [seed, end]",
    ),
    "dataplane": RecordShape(
        lambda node, detail: _int(node)
        and _fields(
            detail, _int, DATAPLANE_STATUSES.__contains__, _optional_int
        ),
        "an integer node and detail [dest, status, hops]",
    ),
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
    traces cut short externally.  A record of a category declared in
    :data:`RECORD_SHAPES` but not in its shape is refused with
    :func:`malformed_record`: this is the one shape check.
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
            loaded = TraceRecord(
                record["time"],
                record["category"],
                record.get("node"),
                tuple(
                    tuple(d) if isinstance(d, list) else d
                    for d in record.get("detail", ())
                ),
            )
            shape = RECORD_SHAPES.get(loaded.category)
            if shape is not None and not shape.admits(
                loaded.node, loaded.detail
            ):
                raise malformed_record(path, loaded, shape.sentence)
            records.append(loaded)
    return records


def malformed_record(
    path: Union[str, Path], record: TraceRecord, shape: str
) -> ValueError:
    """The refusal of a loaded record whose fields are not ``shape``,
    the sentence its category's :class:`RecordShape` quotes.

    It names the record by its time, node and detail rather than by a
    line number, so every offline report says it the same way.
    """
    detail = json.dumps(record.to_dict()["detail"])
    return ValueError(
        f"{path}: a {record.category} record at time {record.time:g} has "
        f"node {json.dumps(record.node)} and detail {detail}, not {shape}"
    )


class Tracer:
    """Collects :class:`TraceRecord` objects.

    Parameters
    ----------
    sink:
        Optional callable invoked with each record (e.g. ``print`` or a
        file writer); records are retained in memory either way.
    """

    #: Whether emitting is worth the caller's while; hot paths test this
    #: before building the arguments of :meth:`emit`.
    enabled = True

    def __init__(
        self, sink: Optional[Callable[[TraceRecord], None]] = None
    ) -> None:
        self.sink = sink
        self.records: List[TraceRecord] = []

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        *detail: Any,
    ) -> None:
        """Record one event."""
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
