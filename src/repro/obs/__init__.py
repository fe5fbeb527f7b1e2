"""Observability layer: metrics, probes, profiling, manifests, exporters.

The package the ROADMAP's perf work stands on: every signal the paper's
dynamic-MRAI argument rests on (unfinished work, queue depth, MRAI ladder
level) is exposed as a per-node time series; every run can emit a metrics
registry, a provenance manifest with wall-clock phase timings, and an
event-loop hotspot profile.  One :class:`TrialObserver` per trial holds
the recorders, in whichever process runs it; its observation record is
the only thing an :class:`ObsSession` absorbs.  See
docs/OBSERVABILITY.md for the catalogue and the record's schema.
"""

from repro.obs.causality import CausalEvent, CausalGraph, load_trace
from repro.obs.dataplane import DataPlaneMonitor
from repro.obs.live import LiveMonitor, last_heartbeat, watch_campaign
from repro.obs.manifest import PhaseTiming, RunManifest, host_fingerprint
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    CounterMetric,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metric_name,
)
from repro.obs.probes import (
    AggregateSample,
    NetworkProbe,
    NodeSample,
    ProbeSamples,
    percentile,
)
from repro.obs.profiling import EventLoopProfiler, HandlerStats, handler_category
from repro.obs.export import (
    write_aggregates_csv,
    write_metrics_jsonl,
    write_timeseries_csv,
)
from repro.obs.session import ObsSession, TrialObserver
from repro.obs.spans import (
    NOOP_SPAN,
    RollupRow,
    Span,
    SpanRecorder,
    record_spans,
    span,
)

__all__ = [
    "AggregateSample",
    "CausalEvent",
    "CausalGraph",
    "CounterMetric",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "DataPlaneMonitor",
    "EventLoopProfiler",
    "Gauge",
    "HandlerStats",
    "Histogram",
    "LiveMonitor",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NetworkProbe",
    "NodeSample",
    "ObsSession",
    "PhaseTiming",
    "ProbeSamples",
    "RollupRow",
    "RunManifest",
    "Span",
    "SpanRecorder",
    "TrialObserver",
    "format_metric_name",
    "handler_category",
    "host_fingerprint",
    "last_heartbeat",
    "load_trace",
    "percentile",
    "record_spans",
    "span",
    "watch_campaign",
    "write_aggregates_csv",
    "write_metrics_jsonl",
    "write_timeseries_csv",
]
