"""Unavailability timelines from data-plane monitor transitions.

:class:`repro.obs.dataplane.DataPlaneMonitor` emits per-(node, dest)
status transitions; this module turns them into the impact metrics the
convergence literature actually scores schemes by:

* **unreachability** — node-seconds each destination was unreachable
  (loop or blackhole) from alive sources inside the observation window,
  with p50/p95/max across destinations;
* **episodes** — forwarding-loop and blackhole episode counts and total
  durations (an episode is a maximal run of one status on one pair);
* **path stretch** — worst transient path length vs. the
  post-convergence path, for pairs that end the window reachable;
* **permanent damage** — pairs still looping/blackholed at window end
  (e.g. destinations whose only origin died).

``down`` intervals (the *source* node itself is failed) are tracked but
excluded from unreachability totals: a dead router isn't a user whose
packets are being dropped.

The same shapes back three consumers: :meth:`DataPlaneTimeline.headline`
is the flat dict stored on ``TrialResult.dataplane`` (JSON-safe, store
round-trippable), :func:`analyze_dataplane_file` is the offline
``repro-bgp dataplane report`` path, and the figure harness compares
schemes on ``unreachable_seconds_total``.  Offline, the transitions are
``dataplane`` trace records read by :func:`repro.sim.trace.load_trace`
— from a ``--dataplane-out`` file, or from a ``--trace-out`` file of a
``--dataplane`` run — each trial's behind its ``dataplane_trial``
delimiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.dataplane import Transition
from repro.obs.probes import percentile
from repro.sim.trace import BLACKHOLE, DOWN, LOOP, OK, TraceRecord, load_trace

__all__ = [
    "DataPlaneTimeline",
    "PairStats",
    "analyze_dataplane_file",
    "render_dataplane_report",
]

#: Statuses that count as "packets to this destination are being lost".
UNREACHABLE = (LOOP, BLACKHOLE)

#: A status segment: (status, start, stop, hops-or-None).
Segment = Tuple[str, float, float, Optional[int]]


@dataclass
class PairStats:
    """Per-(node, dest) rollup over the observation window."""

    node: int
    dest: int
    unreachable_seconds: float = 0.0
    loop_seconds: float = 0.0
    loop_episodes: int = 0
    blackhole_seconds: float = 0.0
    blackhole_episodes: int = 0
    down_seconds: float = 0.0
    final_status: Optional[str] = None
    final_hops: Optional[int] = None
    max_ok_hops: int = 0

    @property
    def never_recovered(self) -> bool:
        return self.final_status in UNREACHABLE

    @property
    def stretch(self) -> Optional[float]:
        """Worst transient path length / settled path length (>= 1)."""
        if self.final_status != OK or not self.final_hops:
            return None
        return max(1.0, self.max_ok_hops / self.final_hops)


class DataPlaneTimeline:
    """Status segments per pair, clipped to an observation window.

    Build with :meth:`from_transitions` (monitor tuples).
    Transitions at or before ``t0`` establish each pair's initial state;
    segments are clipped to ``[t0, end]`` so warm-up churn never leaks
    into a trial's impact numbers.
    """

    def __init__(
        self,
        events: Dict[Tuple[int, int], List[Tuple[float, str, Optional[int]]]],
        t0: float,
        end: float,
    ) -> None:
        self.t0 = t0
        self.end = max(end, t0)
        self._events = events
        self._stats: Optional[List[PairStats]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_transitions(
        cls,
        transitions: Iterable[Transition],
        t0: float = 0.0,
        end: Optional[float] = None,
    ) -> "DataPlaneTimeline":
        """Build from ``(time, node, dest, status, hops)`` tuples."""
        events: Dict[Tuple[int, int], List[Tuple[float, str, Optional[int]]]]
        events = {}
        max_time = t0
        for t, node, dest, status, hops in transitions:
            t = float(t)
            events.setdefault((node, dest), []).append(
                (t, status, None if hops is None else int(hops))
            )
            if t > max_time:
                max_time = t
        if end is None:
            end = max_time
        return cls(events, t0=t0, end=end)

    # ------------------------------------------------------------------
    def _segments(
        self, events: Sequence[Tuple[float, str, Optional[int]]]
    ) -> List[Segment]:
        segments: List[Segment] = []
        status: Optional[str] = None
        hops: Optional[int] = None
        start = self.t0
        for t, new_status, new_hops in events:
            if t <= self.t0:
                # Establishes the state already in force at window start.
                status, hops = new_status, new_hops
                continue
            if t >= self.end:
                break
            if status is not None and t > start:
                segments.append((status, start, t, hops))
            status, hops, start = new_status, new_hops, max(t, self.t0)
        if status is not None and self.end > start:
            segments.append((status, start, self.end, hops))
        return segments

    # ------------------------------------------------------------------
    def pair_stats(self) -> List[PairStats]:
        """One :class:`PairStats` per pair with any in-window state."""
        if self._stats is not None:
            return self._stats
        stats: List[PairStats] = []
        for (node, dest) in sorted(self._events):
            events = self._events[(node, dest)]
            segments = self._segments(events)
            # The state in force at window end: the last event at or
            # before ``end``.  Derived from the events, not the last
            # segment, so zero-width windows (a trial that converged
            # instantly) and heals exactly at window end still count.
            final: Optional[Tuple[str, Optional[int]]] = None
            for t, status, hops in events:
                if t <= self.end:
                    final = (status, hops)
                else:
                    break
            if final is None:
                continue
            ps = PairStats(node=node, dest=dest)
            previous_status: Optional[str] = None
            for status, seg_start, seg_stop, hops in segments:
                duration = seg_stop - seg_start
                if status in UNREACHABLE:
                    ps.unreachable_seconds += duration
                if status == LOOP:
                    ps.loop_seconds += duration
                    if previous_status != LOOP:
                        ps.loop_episodes += 1
                elif status == BLACKHOLE:
                    ps.blackhole_seconds += duration
                    if previous_status != BLACKHOLE:
                        ps.blackhole_episodes += 1
                elif status == DOWN:
                    ps.down_seconds += duration
                elif status == OK and hops is not None:
                    ps.max_ok_hops = max(ps.max_ok_hops, hops)
                previous_status = status
            ps.final_status, ps.final_hops = final
            stats.append(ps)
        self._stats = stats
        return stats

    # ------------------------------------------------------------------
    def destination_unreachability(self) -> Dict[int, float]:
        """Unreachable node-seconds summed over sources, per destination."""
        totals: Dict[int, float] = {}
        for ps in self.pair_stats():
            totals.setdefault(ps.dest, 0.0)
            totals[ps.dest] += ps.unreachable_seconds
        return totals

    def worst_destinations(self, top: int = 5) -> List[Dict[str, Any]]:
        """The ``top`` destinations by unreachable node-seconds."""
        totals = self.destination_unreachability()
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {"dest": dest, "unreachable_seconds": round(seconds, 6)}
            for dest, seconds in ranked[:top]
            if seconds > 0.0
        ]

    # ------------------------------------------------------------------
    def headline(self) -> Dict[str, Any]:
        """Flat JSON-safe summary — the ``TrialResult.dataplane`` payload."""
        stats = self.pair_stats()
        per_dest = sorted(self.destination_unreachability().values())
        stretches = [
            ps.stretch for ps in stats if ps.stretch is not None
        ]
        return {
            "pairs": len(stats),
            "destinations": len(self.destination_unreachability()),
            "transitions": sum(len(v) for v in self._events.values()),
            "window_seconds": round(self.end - self.t0, 6),
            "unreachable_seconds_total": round(
                sum(ps.unreachable_seconds for ps in stats), 6
            ),
            "unreachable_dest_p50": round(percentile(per_dest, 0.50), 6),
            "unreachable_dest_p95": round(percentile(per_dest, 0.95), 6),
            "unreachable_dest_max": round(
                max(per_dest, default=0.0), 6
            ),
            "loop_episodes": sum(ps.loop_episodes for ps in stats),
            "loop_seconds": round(
                sum(ps.loop_seconds for ps in stats), 6
            ),
            "blackhole_episodes": sum(
                ps.blackhole_episodes for ps in stats
            ),
            "blackhole_seconds": round(
                sum(ps.blackhole_seconds for ps in stats), 6
            ),
            "down_seconds": round(
                sum(ps.down_seconds for ps in stats), 6
            ),
            "pairs_never_recovered": sum(
                1 for ps in stats if ps.never_recovered
            ),
            "stretch_max": round(max(stretches, default=0.0), 6),
            "stretch_mean": round(
                sum(stretches) / len(stretches) if stretches else 0.0, 6
            ),
        }

    def summary(self, top: int = 5) -> Dict[str, Any]:
        """Nested report shape: headline + worst destinations."""
        report = dict(self.headline())
        report["worst_destinations"] = self.worst_destinations(top)
        return report


# ----------------------------------------------------------------------
# The ``dataplane report`` report
# ----------------------------------------------------------------------
def analyze_dataplane_file(
    path: Union[str, Path],
    t0: Optional[float] = None,
    top: int = 5,
) -> Dict[str, Any]:
    """Per-trial summaries + cross-trial aggregate of a trace file.

    The file's ``dataplane`` records split into trials on their
    ``dataplane_trial`` delimiters; a trial's number is its delimiter's
    ordinal, and its window runs from the delimiter's time (or ``t0``,
    when given) to its recorded end.  Other categories are skipped.
    ``ValueError`` is raised for a record of a declared category not in
    its shape (by :func:`~repro.sim.trace.load_trace`, read or not), a
    file without a delimiter, or a ``dataplane`` record before the first.
    """
    trials: List[Tuple[TraceRecord, List[Transition]]] = []
    for record in load_trace(path):
        if record.category == "dataplane_trial":
            trials.append((record, []))
        elif record.category == "dataplane":
            if not trials:
                raise ValueError(
                    f"{path}: a dataplane record before any "
                    f"dataplane_trial record"
                )
            trials[-1][1].append((record.time, record.node, *record.detail))
    if not trials:
        raise ValueError(
            f"{path}: no dataplane_trial record (a run without --dataplane?)"
        )
    per_trial: List[Dict[str, Any]] = []
    for number, (delimiter, transitions) in enumerate(trials):
        seed, end = delimiter.detail
        timeline = DataPlaneTimeline.from_transitions(
            transitions, t0=delimiter.time if t0 is None else t0, end=end
        )
        summary = timeline.summary(top)
        summary.update(trial=number, seed=seed)
        per_trial.append(summary)
    totals = [t["unreachable_seconds_total"] for t in per_trial]
    aggregate = {
        "unreachable_seconds_total": round(sum(totals), 6),
        "unreachable_seconds_mean": round(sum(totals) / len(totals), 6),
        "unreachable_seconds_max": round(max(totals), 6),
        "loop_episodes": sum(t["loop_episodes"] for t in per_trial),
        "blackhole_episodes": sum(
            t["blackhole_episodes"] for t in per_trial
        ),
        "pairs_never_recovered": sum(
            t["pairs_never_recovered"] for t in per_trial
        ),
        "stretch_max": round(max(t["stretch_max"] for t in per_trial), 6),
    }
    return {
        "trials": len(per_trial),
        "aggregate": aggregate,
        "per_trial": per_trial,
        "path": str(path),
    }


def render_dataplane_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`analyze_dataplane_file` output."""
    agg = report["aggregate"]
    lines = [
        f"data-plane impact report: {report['trials']} trial(s)"
        + (f" from {report['path']}" if report.get("path") else ""),
        (
            f"  unreachable node-seconds: total "
            f"{agg['unreachable_seconds_total']:.2f}, mean/trial "
            f"{agg['unreachable_seconds_mean']:.2f}, worst trial "
            f"{agg['unreachable_seconds_max']:.2f}"
        ),
        (
            f"  episodes: {agg['blackhole_episodes']} blackhole, "
            f"{agg['loop_episodes']} loop; "
            f"{agg['pairs_never_recovered']} pair(s) never recovered; "
            f"max stretch {agg['stretch_max']:.2f}x"
        ),
    ]
    for summary in report["per_trial"]:
        label = f"trial {summary['trial']}"
        if summary.get("seed") is not None:
            label += f" (seed {summary['seed']})"
        lines.append(
            f"  {label}: {summary['unreachable_seconds_total']:.2f} "
            f"node-s unreachable over {summary['window_seconds']:.2f} s "
            f"({summary['pairs']} pairs, "
            f"{summary['blackhole_episodes']} blackhole / "
            f"{summary['loop_episodes']} loop episodes, "
            f"per-dest p50/p95/max "
            f"{summary['unreachable_dest_p50']:.2f}/"
            f"{summary['unreachable_dest_p95']:.2f}/"
            f"{summary['unreachable_dest_max']:.2f})"
        )
        for worst in summary.get("worst_destinations", []):
            lines.append(
                f"    dest {worst['dest']}: "
                f"{worst['unreachable_seconds']:.2f} node-s unreachable"
            )
    return "\n".join(lines)
