"""Convergence analytics: path exploration and per-destination settling.

Path exploration is the canonical mechanism behind BGP convergence delay:
after a failure each router walks through a sequence of progressively worse
transient AS paths before settling on its final route (or on unreachable).
The trace already records every best-route change (``route_change``
records) and, with causal tracing on, every sent update; this module turns
those into the explanatory numbers the paper's delay curves hide:

* per ``(node, dest)``: how many *distinct* AS paths the node adopted
  between failure injection and quiescence (the exploration count);
* per destination: when it actually converged (the last best-route change
  anywhere in the network — the settle time);
* network-wide: p50/p95/max settle times and an exploration histogram.

:func:`analyze_trace` bundles a :class:`ConvergenceTimeline` with a
:class:`~repro.obs.causality.CausalGraph` into the report behind
``repro-bgp trace analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.causality import ROOT_KIND, CausalGraph
from repro.obs.probes import percentile
from repro.sim.trace import TraceRecord, load_trace


@dataclass
class PathHistory:
    """Best-route changes of one ``(node, dest)`` pair after the failure."""

    node: int
    dest: int
    #: ``(time, path)`` per adoption; ``path`` None = became unreachable.
    changes: List[Tuple[float, Optional[Tuple[int, ...]]]] = field(
        default_factory=list
    )

    @property
    def distinct_paths(self) -> int:
        """Distinct non-null AS paths adopted (the exploration count)."""
        return len({p for _, p in self.changes if p is not None})

    @property
    def change_count(self) -> int:
        return len(self.changes)

    @property
    def settle_time(self) -> float:
        """Time of the last best-route change (absolute sim time)."""
        return self.changes[-1][0] if self.changes else 0.0


class ConvergenceTimeline:
    """Every post-failure best-route change, organized for analysis.

    Parameters
    ----------
    histories:
        One :class:`PathHistory` per ``(node, dest)`` pair that changed.
    t0:
        The failure-injection time all settle times are measured from.
    """

    def __init__(
        self, histories: Iterable[PathHistory], t0: float = 0.0
    ) -> None:
        self.t0 = t0
        self.histories: Dict[Tuple[int, int], PathHistory] = {
            (h.node, h.dest): h for h in histories
        }

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        t0: Optional[float] = None,
    ) -> "ConvergenceTimeline":
        """Build from a trace stream, ignoring the other categories.

        ``t0`` defaults to the first failure-injection causality record
        in the trace; with no such record every change counts (t0 = 0),
        which makes warm-up-only traces analyzable too.
        """
        changes: List[Tuple[float, int, int, Optional[Tuple[int, ...]]]] = []
        detected_t0: Optional[float] = None
        for record in records:
            if record.category == "route_change":
                dest, path = record.detail
                changes.append((record.time, record.node, dest, path))
            elif (
                record.category == "causality"
                and record.detail[0] == ROOT_KIND
                and detected_t0 is None
            ):
                detected_t0 = record.time
        if t0 is None:
            t0 = detected_t0 if detected_t0 is not None else 0.0
        histories: Dict[Tuple[int, int], PathHistory] = {}
        for time, node, dest, path in changes:
            if time < t0:
                continue
            key = (node, dest)
            history = histories.get(key)
            if history is None:
                history = PathHistory(node, dest)
                histories[key] = history
            history.changes.append((time, path))
        return cls(histories.values(), t0=t0)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def total_paths_explored(self) -> int:
        """Sum of distinct paths adopted over all ``(node, dest)`` pairs."""
        return sum(h.distinct_paths for h in self.histories.values())

    def exploration_histogram(self) -> Dict[int, int]:
        """distinct-path count -> number of ``(node, dest)`` pairs."""
        histogram: Dict[int, int] = {}
        for history in self.histories.values():
            count = history.distinct_paths
            histogram[count] = histogram.get(count, 0) + 1
        return dict(sorted(histogram.items()))

    def max_exploration(self) -> int:
        return max(
            (h.distinct_paths for h in self.histories.values()), default=0
        )

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def settle_times(self) -> Dict[int, float]:
        """Per destination: seconds from t0 until its last change anywhere."""
        settles: Dict[int, float] = {}
        for history in self.histories.values():
            delta = history.settle_time - self.t0
            if delta > settles.get(history.dest, -1.0):
                settles[history.dest] = delta
        return settles

    def destination_timeline(self) -> List[Tuple[int, float]]:
        """Destinations in settling order: ``(dest, settle_seconds)``."""
        return sorted(self.settle_times().items(), key=lambda kv: kv[1])

    def settle_stats(self) -> Dict[str, float]:
        values = list(self.settle_times().values())
        return {
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
            "max": max(values, default=0.0),
        }

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-ready exploration + settling headline numbers."""
        pairs = len(self.histories)
        total = self.total_paths_explored()
        return {
            "t0": self.t0,
            "pairs_changed": pairs,
            "destinations": len(self.settle_times()),
            "route_changes": sum(
                h.change_count for h in self.histories.values()
            ),
            "paths_explored_total": total,
            "paths_explored_mean": round(total / pairs, 3) if pairs else 0.0,
            "paths_explored_max": self.max_exploration(),
            "exploration_histogram": self.exploration_histogram(),
            "settle": self.settle_stats(),
        }


# ----------------------------------------------------------------------
# The ``trace analyze`` report
# ----------------------------------------------------------------------
def analyze_trace(
    records: Iterable[TraceRecord],
    t0: Optional[float] = None,
    top: int = 5,
) -> Dict[str, Any]:
    """The full offline report over one trace: causality + convergence."""
    records = list(records)
    graph = CausalGraph.from_records(records)
    timeline = ConvergenceTimeline.from_records(records, t0=t0)
    report: Dict[str, Any] = {
        "causality": graph.summary(),
        "convergence": timeline.summary(),
    }
    report["causality"]["top_amplifiers"] = [
        {"node": node, "factor": round(factor, 3)}
        for node, factor in graph.top_amplifiers(top)
    ]
    report["causality"]["longest_chains"] = [
        [
            {
                "uid": e.uid,
                "kind": e.kind,
                "node": e.node,
                "dest": e.dest,
                "time": e.time,
            }
            for e in chain
        ]
        for chain in graph.longest_chains(min(top, 3))
    ]
    report["convergence"]["slowest_destinations"] = [
        {"dest": dest, "settle_seconds": round(settle, 6)}
        for dest, settle in timeline.destination_timeline()[-top:][::-1]
    ]
    return report


def analyze_trace_file(
    path: Union[str, Path], t0: Optional[float] = None, top: int = 5
) -> Dict[str, Any]:
    """:func:`analyze_trace` of a JSONL trace file.  The report reads
    ``causality`` and ``route_change`` records and skips the rest;
    :func:`~repro.sim.trace.load_trace` refuses (``ValueError``) a record
    of any declared category that is not its shape."""
    return analyze_trace(load_trace(path), t0=t0, top=top)


def _format_chain(chain: List[Dict[str, Any]]) -> str:
    hops = []
    for entry in chain:
        if entry["kind"] == "send":
            hops.append(f"{entry['node']}->d{entry['dest']}")
        else:
            hops.append(entry["kind"].upper())
    return " => ".join(hops)


def render_report(report: Dict[str, Any]) -> str:
    """The human-readable rendering of an :func:`analyze_trace` report."""
    causal = report["causality"]
    conv = report["convergence"]
    lines = [
        "causal trace analysis",
        "=====================",
        f"events                : {causal['events']} "
        f"({causal['sends']} sends, {causal['withdrawals']} withdrawals)",
        f"roots                 : {causal['roots']} "
        f"({len(causal['failure_roots'])} failure-injection)",
    ]
    for root in causal["failure_roots"]:
        scope = ",".join(str(n) for n in root["scope"])
        lines.append(
            f"  uid={root['uid']} {root['kind']} t={root['time']:.3f} "
            f"scope=[{scope}] cascade={root['cascade']} updates"
        )
    lines.append(f"max chain depth       : {causal['max_chain_depth']}")
    lines.append(
        f"wasted updates        : {causal['wasted_updates']} "
        "(superseded before convergence)"
    )
    if causal["top_amplifiers"]:
        lines.append("top amplifying nodes  :")
        for entry in causal["top_amplifiers"]:
            lines.append(
                f"  node {entry['node']:<5} x{entry['factor']:.2f}"
            )
    if causal["longest_chains"]:
        lines.append("longest causal chains :")
        for chain in causal["longest_chains"]:
            lines.append(f"  [{len(chain) - 1}] {_format_chain(chain)}")
    lines.extend(
        [
            "",
            "convergence timeline",
            "====================",
            f"failure time (t0)     : {conv['t0']:.3f} s",
            f"(node, dest) changed  : {conv['pairs_changed']} "
            f"({conv['route_changes']} best-route changes)",
            f"paths explored        : {conv['paths_explored_total']} total, "
            f"{conv['paths_explored_mean']:.2f} mean, "
            f"{conv['paths_explored_max']} max per (node, dest)",
            "exploration histogram : "
            + ", ".join(
                f"{k}:{v}" for k, v in conv["exploration_histogram"].items()
            ),
            f"settle time           : p50 {conv['settle']['p50']:.3f} s, "
            f"p95 {conv['settle']['p95']:.3f} s, "
            f"max {conv['settle']['max']:.3f} s",
        ]
    )
    if conv["slowest_destinations"]:
        lines.append("slowest destinations  :")
        for entry in conv["slowest_destinations"]:
            lines.append(
                f"  dest {entry['dest']:<5} "
                f"settled +{entry['settle_seconds']:.3f} s"
            )
    return "\n".join(lines)
