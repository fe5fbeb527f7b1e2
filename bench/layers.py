"""Per-layer metrics and the layer table, read off one traced repeat.

The traced repeat runs under ``record_spans()`` with an
``ObsSession(profile=True, spans=True)``: the benchmark's own
``bench.<workload>.<phase>`` spans wrap every call into a layer, the
program's existing spans nest beneath them, and the event-loop profiler
accounts handler time per category.  Nothing here touches a private
attribute of the program.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.profiling import EventLoopProfiler
from repro.obs.spans import SpanRecorder

from workloads import Repeat

#: Profiler category -> metric prefix.
HANDLERS = {
    "BGPSpeaker._complete_batch": "bgp.complete_batch",
    "Timer._fire": "bgp.timer_fire",
    "BGPNetwork._deliver": "bgp.deliver",
}

#: Span-name prefix -> the layer a table row is charged to.
SPAN_LAYERS = (
    ("bench.", "bench"),
    ("trial.", "repro.core"),
    ("trials.", "repro.core"),
    ("pool.", "repro.core"),
    ("parallel.", "repro.core"),
    ("campaign.", "repro.store"),
    ("store.", "repro.store"),
    ("topology.", "repro.topology"),
    ("obs.", "repro.obs"),
)


def layer_metrics(
    workload: str,
    traced: Repeat,
    profiler: EventLoopProfiler,
    recorder: SpanRecorder,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every per-layer number the traced repeat itself yields.

    ``untraced_wall`` is the median timed region of the untraced
    repeats, the base of ``obs.trace_overhead_share``.
    """
    trials = traced.trials
    out = dict(traced.layer)
    out["obs.trace_overhead_share"] = traced.wall_s / untraced_wall - 1.0

    # repro.core: the two simulated phases and what run_experiment
    # spends around them (spans cover worker processes and the service's
    # executor thread as well as this thread).
    warmup = recorder.total("trial.warmup")
    convergence = recorder.total("trial.convergence")
    executed = recorder.total("trial.execute") or recorder.total(
        f"bench.{workload}.run_experiment"
    )
    out["core.warmup_wall_s"] = warmup
    out["core.convergence_wall_s"] = convergence
    out["core.trial_overhead_ms"] = (
        (executed - warmup - convergence) / len(trials) * 1e3
    )
    out["core.pool_digest_ms"] = recorder.total("pool.digest") * 1e3
    out["core.pool_dispatch_s"] = recorder.total("pool.digest") + recorder.total(
        "pool.submit"
    )
    folds = [r["dur"] for r in recorder.records if r["name"] == "campaign.fold"]
    if folds:
        out["store.fold_ms"] = sum(folds) / len(folds) * 1e3
    out["topology.builds"] = sum(
        1 for r in recorder.records if r["name"] == "topology.build"
    )

    # repro.sim / repro.bgp: handler accounting from the profiler.
    out["sim.events_executed"] = sum(t.events_executed for t in trials)
    if profiler.total_events:
        phases = warmup + convergence
        out["sim.loop_self_share"] = (phases - profiler.total_seconds) / phases
        for row in profiler.report():
            prefix = HANDLERS.get(row.category)
            if prefix is None:
                continue
            out[f"{prefix}_us"] = row.mean_us
            out[f"{prefix}_calls"] = row.events
            if prefix != "bgp.deliver":
                out[f"{prefix}_share"] = row.share

    # Post-failure protocol counts, as TrialResult reports them.
    processed = sum(t.updates_processed for t in trials)
    changes = sum(t.route_changes for t in trials)
    out["bgp.updates_sent"] = sum(t.messages_sent for t in trials)
    out["bgp.updates_processed"] = processed
    out["bgp.stale_dropped"] = sum(t.stale_dropped for t in trials)
    out["bgp.route_changes"] = changes
    out["bgp.useful_update_ratio"] = changes / processed if processed else 0.0
    return out


def _layer_of(name: str) -> str:
    for prefix, layer in SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return "?"


def layer_table(
    recorder: SpanRecorder, root: str, profiler: EventLoopProfiler
) -> Tuple[List[str], float]:
    """The traced repeat as rows of self time; returns (lines, sum of self).

    Rows are span paths under ``root`` (this thread's tree).  A row's
    self time is its total minus its direct children's totals, so the
    rows sum to the root span — the traced wall — by construction; the
    caller still checks it, because a span recorded outside its parent
    would break the sum.  Spans recorded elsewhere (worker processes,
    the service's threads) overlap the tree in time: they are listed
    after it and are not part of the sum.
    """
    totals = {
        row.path: (row.count, row.total_seconds) for row in recorder.rollup()
    }
    tree = {
        path: cell
        for path, cell in totals.items()
        if path == root or path.startswith(root + "/")
    }
    children: Dict[str, float] = {}
    for path, (_count, total) in tree.items():
        if path != root:
            parent = path.rsplit("/", 1)[0]
            children[parent] = children.get(parent, 0.0) + total
    wall = tree[root][1]
    lines = [
        f"{'span':<58} {'layer':<14} {'count':>6} {'total s':>9} "
        f"{'self s':>9} {'self %':>7}"
    ]
    self_sum = 0.0
    phase_self = 0.0
    for path in sorted(tree):
        count, total = tree[path]
        self_s = total - children.get(path, 0.0)
        self_sum += self_s
        name = path.rsplit("/", 1)[-1]
        if name in ("trial.warmup", "trial.convergence"):
            phase_self += self_s
        depth = path.count("/") - root.count("/")
        label = "  " * depth + name
        lines.append(
            f"{label[:58]:<58} {_layer_of(name):<14} {int(count):>6} "
            f"{total:>9.3f} {self_s:>9.3f} {self_s / wall:>6.1%}"
        )
    lines.append(
        f"{'sum of self time':<58} {'':<14} {'':>6} {wall:>9.3f} "
        f"{self_sum:>9.3f} {self_sum / wall:>6.1%}"
    )

    if phase_self and profiler.total_events:
        # The simulated phases have no spans inside; the profiler splits
        # their self time into handlers and the event loop around them.
        lines.append("inside trial.warmup + trial.convergence (this thread):")
        for row in profiler.report():
            layer = "repro.bgp" if row.category in HANDLERS else "?"
            lines.append(
                f"  {row.category:<56} {layer:<14} {row.events:>6} "
                f"{'':>9} {row.total_seconds:>9.3f} "
                f"{row.total_seconds / wall:>6.1%}"
            )
        loop = phase_self - profiler.total_seconds
        lines.append(
            f"  {'event loop (phases - handlers)':<56} {'repro.sim':<14} "
            f"{profiler.total_events:>6} {'':>9} {loop:>9.3f} "
            f"{loop / wall:>6.1%}"
        )

    outside = sorted(
        (
            (path, cell)
            for path, cell in totals.items()
            if path not in tree
        ),
        key=lambda item: -item[1][1],
    )
    if outside:
        lines.append(
            "concurrent with the tree (other threads / worker processes; "
            "not in the sum):"
        )
        for path, (count, total) in outside[:12]:
            name = path.rsplit("/", 1)[-1]
            lines.append(
                f"  {path[-56:]:<56} {_layer_of(name):<14} {int(count):>6} "
                f"{total:>9.3f}"
            )
        if len(outside) > 12:
            lines.append(f"  ... and {len(outside) - 12} more paths")
    return lines, self_sum

