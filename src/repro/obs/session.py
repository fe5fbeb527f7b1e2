"""The observation session and the per-trial observer that feeds it.

Observation is split along the one line it has:

* :class:`TrialObserver` owns everything that exists for a single trial
  — its metrics registry, profiler, tracer, probe, data-plane monitor
  and raw phase timings.  It is built from a session's picklable recipe
  (:meth:`ObsSession.worker_args`) in whichever process runs the trial,
  takes the experiment layer's hooks, and returns one observation
  record (:meth:`TrialObserver.record`) of plain data.
* :class:`ObsSession` owns everything that spans trials — the merged
  registry and profiler, the sink, the per-trial snapshots, phases and
  probe samples, the final :class:`~repro.obs.manifest.RunManifest` —
  and :meth:`ObsSession.absorb` is the only way a trial's observations
  enter it.  A session cannot tell which process, or which entry point
  (``run_experiment(obs=)``, a ``jobs=1`` batch, a pooled batch), ran a
  trial.

A session reaches a run as the ``obs=`` argument every driver takes
(``run_experiment``, ``run_campaign``, ``compute_figure``); nothing is
observed without it.  A session that records spans does not install its
recorder — span sites are everywhere, like a logger — so the caller
does, with ``record_spans(session.span_recorder)``.
``ObsSession.export(dir)`` then writes ``manifest.json``,
``metrics.jsonl``, ``timeseries.csv`` and ``aggregates.csv`` (plus
``profile.txt`` when profiling).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.manifest import PhaseTiming, RunManifest
from repro.obs.profiling import EventLoopProfiler
from repro.obs.spans import SpanRecorder, span
from repro.sim.trace import TraceRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.network import BGPNetwork
    from repro.core.experiment import TrialResult
    from repro.obs.dataplane import DataPlaneMonitor
    from repro.obs.probes import NetworkProbe, ProbeSamples

#: Categories a monitored trial adds to its stream: one
#: ``dataplane_trial`` delimiter, then its ``dataplane`` transitions.
DATAPLANE_CATEGORIES = frozenset({"dataplane_trial", "dataplane"})

#: A session's record channel (e.g. a :class:`~repro.sim.trace.JsonlSink`).
Sink = Callable[[TraceRecord], None]


class TrialObserver:
    """Everything that observes one trial, in the process that runs it.

    Built from a session's recipe (:meth:`ObsSession.worker_args`).  The
    experiment layer hands :attr:`registry` and :attr:`tracer` to the
    network it builds, calls :meth:`attach` / :meth:`record_phase` /
    :meth:`on_failure` / :meth:`finish_dataplane` / :meth:`note_trial`
    at the right points, and :meth:`record` is then everything observed,
    as plain picklable data for :meth:`ObsSession.absorb`.

    A trial has one record channel, :attr:`sink`, for its trace and
    data-plane records alike, and ``sink`` is the whole difference
    between in-process and worker observation: given the session's own
    sink (``run_experiment(obs=)``), records stream straight into it
    while the trial runs; without it — a sink cannot cross the process
    boundary — they are buffered into the record for ``absorb`` to
    replay, when the recipe says the session has a sink at all.
    """

    def __init__(
        self, recipe: Dict[str, Any], sink: Optional[Sink] = None
    ) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.recipe = recipe
        self.registry = MetricsRegistry()
        self.profiler: Optional[EventLoopProfiler] = (
            EventLoopProfiler() if recipe["profile"] else None
        )
        #: Installed around the trial by ``execute_trial``; stays empty
        #: when the caller's own recorder is the active one.
        self.span_recorder: Optional[SpanRecorder] = (
            SpanRecorder() if recipe["spans"] else None
        )
        self._records: Optional[List[TraceRecord]] = None
        if sink is None and recipe["sink"]:
            self._records = []
            sink = self._records.append
        #: Where this trial's records go: the session's sink, the
        #: buffer :meth:`record` ships, or nowhere.
        self.sink = sink
        self.tracer: Optional[Tracer] = (
            Tracer(sink=sink) if recipe["trace"] else None
        )
        self.probe: Optional[NetworkProbe] = None
        self.monitor: Optional["DataPlaneMonitor"] = None
        self._phases: List[Tuple[str, float, float, int]] = []
        self._snapshot: Dict[str, Any] = {}

    def attach(self, network: "BGPNetwork") -> None:
        """Wire the recorders into the trial's freshly built network."""
        if self.profiler is not None:
            self.profiler.attach(network.sim)
        if self.recipe["sample_interval"] is not None:
            from repro.obs.probes import NetworkProbe

            self.probe = NetworkProbe(network, self.recipe["sample_interval"])
            self.probe.start()
        if self.recipe["dataplane"]:
            from repro.obs.dataplane import DataPlaneMonitor

            self.monitor = DataPlaneMonitor()
            self.monitor.attach(network)

    def on_failure(self) -> None:
        """Re-arm the probe after failure injection (it detaches at
        quiescence, which the end of warm-up is)."""
        if self.probe is not None:
            self.probe.start()

    def record_phase(
        self,
        name: str,
        wall_seconds: float,
        sim_seconds: float = 0.0,
        events: int = 0,
    ) -> None:
        self._phases.append((name, wall_seconds, sim_seconds, events))

    def finish_dataplane(
        self, network: "BGPNetwork", t0: float, seed: int
    ) -> Optional[Dict[str, Any]]:
        """Finalize the data-plane monitor and fold its timeline.

        Called after convergence, before the :class:`TrialResult` is
        built.  Returns the headline summary (the
        ``TrialResult.dataplane`` payload) or None when monitors are
        off.  With a sink, the trial's channel then gets a
        ``dataplane_trial`` delimiter (time ``t0``, detail ``(seed,
        end)``) and one ``dataplane`` record per transition (detail
        ``(dest, status, hops)``), so offline reports can split
        multi-trial files.  They bypass the tracer, whose own records
        stay what the convergence summary reads.
        """
        monitor = self.monitor
        if monitor is None:
            return None
        end = max(network.last_activity, t0)
        monitor.finalize(end)
        from repro.analysis.dataplane import DataPlaneTimeline

        timeline = DataPlaneTimeline.from_transitions(
            monitor.transitions, t0=t0, end=end
        )
        sink = self.sink
        if sink is not None:
            sink(TraceRecord(t0, "dataplane_trial", None, (seed, end)))
            for t, node, dest, status, hops in monitor.transitions:
                sink(TraceRecord(t, "dataplane", node, (dest, status, hops)))
        network.dataplane = None
        return timeline.headline()

    def note_trial(
        self, result: "TrialResult", counters: Dict[str, Any]
    ) -> None:
        """Fold the finished trial into the record's one snapshot, and
        its network-wide counter totals into the registry."""
        for name, value in counters.items():
            self.registry.counter(name).inc(value)
        snapshot: Dict[str, Any] = {
            "seed": result.seed,
            "counters": dict(counters),
            "convergence_delay": result.convergence_delay,
            "messages_sent": result.messages_sent,
            "warmup_wall": result.warmup_wall,
            "convergence_wall": result.convergence_wall,
        }
        if self.tracer is not None:
            from repro.analysis.convergence import ConvergenceTimeline

            timeline = ConvergenceTimeline.from_records(
                self.tracer.records, t0=result.failure_time
            )
            snapshot["exploration"] = timeline.summary()
        if result.dataplane:
            snapshot["dataplane"] = result.dataplane
        self._snapshot = snapshot

    def record(self) -> Dict[str, Any]:
        """Everything observed about the trial, each fact stated once.

        Seed, counters, exploration and data-plane headline live in the
        snapshot only; phases are raw (the session labels them with its
        own trial index); the spec and topology are not here at all —
        whoever calls :meth:`ObsSession.absorb` holds them.  Sections a
        recorder never filled are pruned, so the pickled message is as
        small as what was actually observed.
        """
        record: Dict[str, Any] = {
            "snapshot": self._snapshot,
            "phases": self._phases,
            "metrics": self.registry.records(),
            "records": self._records,
        }
        if self.profiler is not None:
            record["profile"] = self.profiler.records()
        if self.span_recorder is not None:
            record["spans"] = self.span_recorder.records
        if self.probe is not None:
            record["probe"] = self.probe.samples
        return {key: value for key, value in record.items() if value}


class ObsSession:
    """Everything observed about one run (or one sweep of runs).

    Parameters
    ----------
    sample_interval:
        When set, each trial's network gets a :class:`NetworkProbe` with
        this simulated-seconds period.
    profile:
        When True, an :class:`EventLoopProfiler` is attached to every
        simulator; statistics accumulate across trials.
    trace:
        When True, every trial runs with a causal tracer attached (the
        BGP layer emits ``causality`` and ``route_change`` records) and
        its path-exploration / settle-time summary is recorded alongside
        the delay in the trial snapshot and manifest.
    spans:
        When True, the session owns a
        :class:`~repro.obs.spans.SpanRecorder`; installed by the caller
        (:func:`~repro.obs.spans.record_spans`), it records the
        orchestration code's hierarchical wall-clock spans, batch trials
        graft theirs under ``workers/``, and :meth:`export` writes
        ``spans.json`` (Chrome trace format).
    dataplane:
        When True, every trial's network gets a
        :class:`~repro.obs.dataplane.DataPlaneMonitor`; the trial's
        unavailability summary lands on ``TrialResult.dataplane``, the
        trial snapshot, and the manifest rollup.  Trajectory-neutral
        (the monitor only reads simulator state).
    sink:
        Optional per-record callable (e.g. a
        :class:`~repro.sim.trace.JsonlSink`) receiving every trial's
        :class:`~repro.sim.trace.TraceRecord` stream, in trial order:
        its trace records, then its ``dataplane_trial`` delimiter and
        ``dataplane`` transitions.  A sink turns nothing on; ``trace``
        and ``dataplane`` say what the stream holds.
    """

    def __init__(
        self,
        sample_interval: Optional[float] = None,
        profile: bool = False,
        trace: bool = False,
        spans: bool = False,
        dataplane: bool = False,
        sink: Optional[Sink] = None,
    ) -> None:
        from repro.obs.metrics import MetricsRegistry

        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        #: Metrics merged across trials.
        self.registry = MetricsRegistry()
        self.sample_interval = sample_interval
        self.trace = bool(trace)
        self.sink = sink
        self.profiler: Optional[EventLoopProfiler] = (
            EventLoopProfiler() if profile else None
        )
        #: Hierarchical wall-clock spans (None = span recording off).
        self.span_recorder: Optional[SpanRecorder] = (
            SpanRecorder() if spans else None
        )
        #: One entry per sampled trial, in trial order.
        self.probes: List[ProbeSamples] = []
        self.phases: List[PhaseTiming] = []
        #: One snapshot per absorbed trial, in trial order; a traced
        #: trial's carries ``exploration``, a monitored one's
        #: ``dataplane``.
        self.trial_snapshots: List[Dict[str, Any]] = []
        self.manifest: Optional[RunManifest] = None
        #: Manifests of campaigns run under this session (name, payload).
        self.campaigns: List[Dict[str, Any]] = []
        self._last_spec: Optional[Dict[str, Any]] = None
        self._last_topology: str = ""
        self.dataplane_enabled = bool(dataplane)

    @property
    def probe(self) -> Optional[ProbeSamples]:
        """The probe samples of the most recent sampled trial, if any."""
        return self.probes[-1] if self.probes else None

    def note_campaign(self, name: str, manifest: Dict[str, Any]) -> None:
        """Attach one campaign run's manifest to this session."""
        self.campaigns.append({"name": name, "manifest": manifest})

    # ------------------------------------------------------------------
    # Trial round-trip: recipe out, observation record in
    # ------------------------------------------------------------------
    def worker_args(self) -> Dict[str, Any]:
        """The picklable recipe a :class:`TrialObserver` is built from.

        The constructor arguments as plain data, with the sink reduced
        to whether there is one: a sink cannot cross the process
        boundary, so an observer that is not handed it buffers the raw
        records for :meth:`absorb` to replay.
        """
        return {
            "sample_interval": self.sample_interval,
            "profile": self.profiler is not None,
            "trace": self.trace,
            "spans": self.span_recorder is not None,
            "dataplane": self.dataplane_enabled,
            "sink": self.sink is not None,
        }

    def absorb(self, record: Dict[str, Any], spec: Any, topology: str) -> None:
        """Fold one trial's observation record into this session.

        The only way a trial's observations enter a session, whichever
        process or entry point ran it: trial numbering, phase labels,
        snapshots and sink replay happen here and nowhere else.  Records
        replay as they are: a ``dataplane_trial`` delimiter carries its
        own seed, and its ordinal in the sink is this trial's index,
        since only executed trials are absorbed.  Callers absorb in plan
        (seed) order, so trial indices and sink sequences do not depend
        on completion order.  ``spec`` and
        ``topology`` (its summary line) are what the caller ran the
        trial with; the manifest reports the last ones seen, the spec as
        its declarative dict — so a spec with no declarative form raises
        :class:`~repro.specs.serialize.SpecSerializationError` here,
        before its first trial enters the session.  Both callers refuse
        such a spec before simulating it: the batch planner keys every
        trial, and ``run_experiment(obs=)`` converts the spec first.
        """
        from repro.specs.serialize import spec_to_dict

        self._last_spec = spec_to_dict(spec)
        index = len(self.trial_snapshots)
        snapshot = record["snapshot"]
        self._last_topology = topology
        for name, wall, sim_seconds, events in record["phases"]:
            label = f"{name}[{index}]" if index else name
            self.phases.append(
                PhaseTiming(label, wall, sim_seconds, events)
            )
        self.trial_snapshots.append(
            {"kind": "trial", "trial": index, **snapshot}
        )
        self.registry.absorb_records(record["metrics"])
        if self.profiler is not None:
            self.profiler.absorb_records(record.get("profile", ()))
        if "probe" in record:
            self.probes.append(record["probe"])
        if self.sink is not None:
            for trace_record in record.get("records", ()):
                self.sink(trace_record)
        if self.span_recorder is not None:
            # Trial-local spans graft under "workers/" so the rollup
            # keeps orchestration time and trial busy time apart.
            self.span_recorder.absorb_records(
                record.get("spans", ()), prefix="workers"
            )

    # ------------------------------------------------------------------
    # Finalization + export
    # ------------------------------------------------------------------
    def finalize(
        self,
        *,
        kind: str = "repro-run",
        command: str = "",
        extra: Optional[Dict[str, Any]] = None,
    ) -> RunManifest:
        """Build (and remember) the manifest for this session.

        Spec and topology are the last trial's; the seeds are every seed
        observed, in trial order, deduplicated (sweeps reuse the same
        seed list across points).
        """
        snapshots = self.trial_snapshots
        manifest = RunManifest.create(
            kind=kind,
            command=command,
            spec=self._last_spec,
            seeds=list(dict.fromkeys(s["seed"] for s in snapshots)),
            topology=self._last_topology,
            phases=list(self.phases),
            counters=dict(snapshots[-1]["counters"]) if snapshots else {},
            extra=extra,
        )
        manifest.extra.setdefault("trials", len(snapshots))
        if self.profiler is not None:
            manifest.extra.setdefault(
                "profiled_events", self.profiler.total_events
            )
            # Throughput inline, so readers of the manifest need not
            # re-derive the events/s number from the profile.
            manifest.extra.setdefault(
                "events_per_second",
                round(self.profiler.events_per_second, 1),
            )
            # Top hotspot categories inline, so the heaviest handlers
            # are visible without opening profile.txt.
            manifest.extra.setdefault(
                "profile_top", self.profiler.top_categories(5)
            )
        if self.span_recorder is not None and len(self.span_recorder):
            manifest.extra.setdefault(
                "spans",
                {
                    "count": len(self.span_recorder),
                    "wall_seconds": round(
                        self.span_recorder.wall_seconds, 6
                    ),
                },
            )
        explorations = [
            s["exploration"] for s in snapshots if "exploration" in s
        ]
        if explorations:
            manifest.extra.setdefault(
                "exploration", _exploration_rollup(explorations)
            )
        dataplanes = [s["dataplane"] for s in snapshots if "dataplane" in s]
        if dataplanes:
            manifest.extra.setdefault("dataplane", _dataplane_rollup(dataplanes))
        if self.campaigns:
            manifest.extra.setdefault("campaigns", list(self.campaigns))
        self.manifest = manifest
        return manifest

    def export(
        self, directory: Union[str, Path], command: str = ""
    ) -> List[Path]:
        """Write every artifact this session holds; returns the paths."""
        from repro.obs.export import (
            write_aggregates_csv,
            write_metrics_jsonl,
            write_timeseries_csv,
        )

        with span("obs.export"):
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            if self.manifest is None:
                self.finalize(command=command)
            assert self.manifest is not None
            written = [self.manifest.save(directory / "manifest.json")]
            extra_records: List[Dict[str, Any]] = list(self.trial_snapshots)
            if self.profiler is not None:
                extra_records.extend(self.profiler.records())
            written.append(
                write_metrics_jsonl(
                    self.registry, directory / "metrics.jsonl", extra_records
                )
            )
            written.append(
                write_timeseries_csv(
                    self.probes, directory / "timeseries.csv"
                )
            )
            written.append(
                write_aggregates_csv(
                    self.probes, directory / "aggregates.csv"
                )
            )
            if self.profiler is not None:
                profile_path = directory / "profile.txt"
                profile_path.write_text(
                    self.profiler.render() + "\n", encoding="utf-8"
                )
                written.append(profile_path)
        if self.span_recorder is not None and len(self.span_recorder):
            # Written after the export span closes so the trace contains
            # its own export cost.
            written.append(
                self.span_recorder.write_chrome_trace(
                    directory / "spans.json"
                )
            )
        return written

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ObsSession trials={len(self.trial_snapshots)} "
            f"metrics={len(self.registry)} probes={len(self.probes)} "
            f"profile={self.profiler is not None}>"
        )


def _exploration_rollup(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Exploration counts rolled up across every traced trial."""
    totals = [s["paths_explored_total"] for s in summaries]
    return {
        "trials": len(summaries),
        "paths_explored_total": sum(totals),
        "paths_explored_max_trial": max(totals, default=0),
        "route_changes_total": sum(s["route_changes"] for s in summaries),
        "settle_p95_max": max(
            (s["settle"]["p95"] for s in summaries), default=0.0
        ),
    }


def _dataplane_rollup(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Data-plane impact rolled up across every monitored trial."""
    totals = [s["unreachable_seconds_total"] for s in summaries]
    return {
        "trials": len(summaries),
        "unreachable_seconds_total": round(sum(totals), 6),
        "unreachable_seconds_max_trial": round(max(totals, default=0.0), 6),
        "loop_episodes": sum(s["loop_episodes"] for s in summaries),
        "blackhole_episodes": sum(s["blackhole_episodes"] for s in summaries),
        "pairs_never_recovered_max": max(
            (s["pairs_never_recovered"] for s in summaries), default=0
        ),
    }
