"""Metrics registry: counters and fixed-bucket histograms.

The experiment layer's historical observability surface was two scalars per
run plus the ad-hoc :class:`repro.sim.trace.Counter`.  This module is the
structured replacement: a :class:`MetricsRegistry` holds *families* of
metrics addressed by name and an optional label set, e.g.
``updates_processed{node=7}``, so a single run can expose per-node and
network-wide views of the same signal side by side.

Two metric kinds, Prometheus-flavoured but in-process only:

* :class:`CounterMetric` — monotonically increasing totals;
* :class:`Histogram` — fixed-bucket distributions (service times, batch
  sizes) with cumulative-free per-bucket counts and a sum.

Hot-path discipline: callers cache the child object once (``child =
registry.counter("updates_processed", node=7)``) and call ``child.inc()``
per event; the registry lookup never sits on a per-event path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Canonical label identity: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, Any], ...]

#: Default histogram buckets for durations in seconds (service times span
#: the paper's uniform(1 ms, 30 ms) range; the tail covers batched service).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Default buckets for small cardinalities (queue depths, batch sizes).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def format_metric_name(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` (plain ``name`` when unlabeled)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Child:
    """Common identity plumbing for all metric kinds."""

    __slots__ = ("name", "labels")
    kind = "abstract"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        return format_metric_name(self.name, self.labels)

    def label_dict(self) -> Dict[str, Any]:
        return dict(self.labels)

    def to_record(self) -> Dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.full_name}>"


class CounterMetric(_Child):
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_record(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict(),
            "value": self.value,
        }


class Histogram(_Child):
    """A fixed-bucket distribution.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit overflow
    bucket beyond the last bound.  Bucketing is exact, so trials' records
    add bucket-wise (:meth:`MetricsRegistry.absorb_records`).
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelKey, buckets: Sequence[float]
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = bounds
        #: Per-bucket counts; the extra final slot is the overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def to_record(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict(),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class _Family:
    """All children of one metric name (shared kind, per-label children)."""

    __slots__ = ("name", "kind", "buckets", "children")

    def __init__(
        self, name: str, kind: str, buckets: Optional[Tuple[float, ...]]
    ) -> None:
        self.name = name
        self.kind = kind
        self.buckets = buckets
        self.children: Dict[LabelKey, _Child] = {}


class MetricsRegistry:
    """Container and factory for every metric a run exposes.

    ``counter`` / ``histogram`` are get-or-create: repeated
    calls with the same name and labels return the same child object, so
    callers can safely cache at wiring time.  Registering the same name
    under a different kind (or a histogram under different buckets) is a
    configuration error and raises immediately.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- factories -----------------------------------------------------
    def counter(self, name: str, **labels: Any) -> CounterMetric:
        return self._child(name, "counter", None, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        return self._child(name, "histogram", bounds, labels)

    def _child(
        self,
        name: str,
        kind: str,
        buckets: Optional[Tuple[float, ...]],
        labels: Dict[str, Any],
    ):
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}"
            )
        elif kind == "histogram" and buckets != family.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets}, got {buckets}"
            )
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            if kind == "counter":
                child = CounterMetric(name, key)
            else:
                assert buckets is not None
                child = Histogram(name, key, buckets)
            family.children[key] = child
        return child

    # -- introspection -------------------------------------------------
    def children(self) -> Iterable[_Child]:
        """Every child, ordered by (name, labels) for stable exports."""
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.children, key=repr):
                yield family.children[key]

    def records(self) -> List[Dict[str, Any]]:
        """One export record per child, deterministically ordered."""
        return [child.to_record() for child in self.children()]

    def absorb_records(self, records: Iterable[Dict[str, Any]]) -> None:
        """Fold exported :meth:`records` rows into this registry.

        The merge discipline matches how a single registry accumulates
        across trials: counters add and histograms merge bucket-wise.
        This is how per-trial registries from worker processes aggregate
        into the parent session's registry.
        """
        for record in records:
            kind = record.get("kind")
            labels = record.get("labels") or {}
            if kind == "counter":
                self.counter(record["name"], **labels).inc(record["value"])
            elif kind == "histogram":
                child = self.histogram(
                    record["name"], buckets=record["buckets"], **labels
                )
                incoming = record["counts"]
                for i, n in enumerate(incoming):
                    child.counts[i] += n
                child.sum += record["sum"]
                child.count += record["count"]
            # Unknown kinds (trial snapshots, profile rows) are not
            # registry state; ignore them rather than fail mid-merge.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry families={len(self._families)}>"
