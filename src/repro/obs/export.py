"""Exporters: metrics to JSONL, probe series to CSV.

File formats are deliberately boring:

* ``metrics.jsonl`` — one JSON object per metric child (plus per-trial
  snapshot records and profiler rows when available), so a run's entire
  metric state greps and streams;
* ``timeseries.csv`` — per-node probe rows, one per (run, sample, node);
* ``aggregates.csv`` — network-wide roll-ups, one row per (run, sample);
* ``manifest.json`` — written by :meth:`repro.obs.manifest.RunManifest.save`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import ProbeSamples
from repro.sim.trace import JsonlSink

TIMESERIES_FIELDS = [
    "run",
    "time",
    "node",
    "queue_depth",
    "unfinished_work",
    "mrai_level",
    "mrai_value",
    "loc_rib_size",
]

AGGREGATE_FIELDS = [
    "run",
    "time",
    "nodes",
    "busy_nodes",
    "total_queue_depth",
    "queue_p50",
    "queue_p95",
    "queue_max",
    "work_p50",
    "work_p95",
    "work_max",
    "loc_rib_total",
    "invalid_routes",
    "mrai_levels",
]


def write_metrics_jsonl(
    registry: MetricsRegistry,
    path: Union[str, Path],
    extra_records: Sequence[Dict[str, Any]] = (),
) -> Path:
    """The registry's records plus any extra rows (trial snapshots,
    profile rows), one JSON object per line."""
    with JsonlSink(path) as sink:
        for record in (*registry.records(), *extra_records):
            sink(record)
    return sink.path


def write_timeseries_csv(
    probes: Sequence[ProbeSamples], path: Union[str, Path]
) -> Path:
    """Per-node probe samples, with a ``run`` column indexing the probe."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_FIELDS)
        for run, probe in enumerate(probes):
            for s in probe.node_samples:
                writer.writerow(
                    [
                        run,
                        f"{s.time:.6f}",
                        s.node,
                        s.queue_depth,
                        f"{s.unfinished_work:.6f}",
                        s.mrai_level,
                        f"{s.mrai_value:.6f}",
                        s.loc_rib_size,
                    ]
                )
    return path


def write_aggregates_csv(
    probes: Sequence[ProbeSamples], path: Union[str, Path]
) -> Path:
    """Network-wide aggregate samples, one row per (run, sample)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_FIELDS)
        for run, probe in enumerate(probes):
            for a in probe.aggregates:
                levels = "/".join(
                    f"{level}:{count}"
                    for level, count in sorted(a.mrai_levels.items())
                )
                writer.writerow(
                    [
                        run,
                        f"{a.time:.6f}",
                        a.nodes,
                        a.busy_nodes,
                        a.total_queue_depth,
                        f"{a.queue_p50:.6f}",
                        f"{a.queue_p95:.6f}",
                        f"{a.queue_max:.6f}",
                        f"{a.work_p50:.6f}",
                        f"{a.work_p95:.6f}",
                        f"{a.work_max:.6f}",
                        a.loc_rib_total,
                        a.invalid_routes,
                        levels,
                    ]
                )
    return path
