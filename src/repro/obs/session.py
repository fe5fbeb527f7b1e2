"""The observation session: one object that bundles the whole obs layer.

:class:`ObsSession` owns a :class:`~repro.obs.metrics.MetricsRegistry`, an
optional :class:`~repro.obs.profiling.EventLoopProfiler`, the per-trial
:class:`~repro.obs.probes.NetworkProbe` instances, phase timings and the
final :class:`~repro.obs.manifest.RunManifest`.  The experiment layer only
ever talks to the session:

* :func:`repro.core.experiment.run_experiment` accepts ``obs=`` and calls
  :meth:`attach` / :meth:`on_failure` / :meth:`record_phase` /
  :meth:`note_trial` at the right points;
* deeper call stacks (figure sweeps) are reached through the *active
  session*: ``with observe(session): compute_figure(...)`` makes every
  experiment run inside the block pick the session up implicitly.

``ObsSession.export(dir)`` then writes ``manifest.json``,
``metrics.jsonl``, ``timeseries.csv`` and ``aggregates.csv`` (plus
``profile.txt`` when profiling).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.obs.export import (
    write_aggregates_csv,
    write_metrics_jsonl,
    write_timeseries_csv,
)
from repro.obs.manifest import PhaseTiming, RunManifest, jsonable
from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import NetworkProbe, ProbeData
from repro.obs.profiling import EventLoopProfiler
from repro.obs.spans import SpanRecorder, record_spans, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.network import BGPNetwork
    from repro.obs.dataplane import DataPlaneMonitor
    from repro.sim.trace import TraceRecord, Tracer

#: Categories a session tracer records by default: exactly what the
#: causal/convergence analysis consumes.
DEFAULT_TRACE_CATEGORIES = frozenset({"causality", "route_change"})

#: Stack of active sessions; the innermost one wins.
_ACTIVE: List["ObsSession"] = []


def active_session() -> Optional["ObsSession"]:
    """The session installed by the innermost :func:`observe` block."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def observe(session: "ObsSession"):
    """Make ``session`` the implicit obs sink for nested experiment runs.

    When the session records spans, its recorder is installed as the
    active one for the block, so instrumented orchestration code
    (:func:`repro.obs.spans.span` call sites) reports to it implicitly.
    """
    _ACTIVE.append(session)
    try:
        if session.span_recorder is not None:
            with record_spans(session.span_recorder):
                yield session
        else:
            yield session
    finally:
        _ACTIVE.pop()


class ObsSession:
    """Everything observed about one run (or one sweep of runs).

    Parameters
    ----------
    sample_interval:
        When set, each attached network gets a :class:`NetworkProbe` with
        this simulated-seconds period.
    profile:
        When True, an :class:`EventLoopProfiler` is attached to every
        simulator; statistics accumulate across trials.
    probe_nodes:
        Optional node-id filter for per-node probe rows.
    trace:
        When True, every trial runs with a causal tracer attached
        (:meth:`make_tracer`) and its path-exploration / settle-time
        summary is recorded alongside the delay in the trial snapshot
        and manifest.
    trace_sink:
        Optional per-record callable (e.g. a
        :class:`~repro.sim.trace.JsonlSink`) forwarded to every trial
        tracer; implies ``trace``.
    trace_categories:
        Category filter for trial tracers; defaults to
        ``{"causality", "route_change"}`` (what the analysis consumes).
    trace_max_records:
        In-memory bound per trial tracer (drop-oldest; see
        :class:`~repro.sim.trace.Tracer`).
    spans:
        When True, the session owns a
        :class:`~repro.obs.spans.SpanRecorder`; :func:`observe` installs
        it so instrumented orchestration code records hierarchical
        wall-clock spans, worker sessions round-trip theirs home, and
        :meth:`export` writes ``spans.json`` (Chrome trace format).
    dataplane:
        When True, every attached network gets a
        :class:`~repro.obs.dataplane.DataPlaneMonitor`; the trial's
        unavailability summary lands on ``TrialResult.dataplane``, the
        trial snapshot, and the manifest rollup.  Trajectory-neutral
        (the monitor only reads simulator state).
    dataplane_sink:
        Optional per-record callable (e.g. a
        :class:`~repro.obs.dataplane.DataPlaneJsonlSink`) receiving
        every transition record plus per-trial ``dataplane_trial``
        delimiters, for offline ``dataplane report``; implies
        ``dataplane``.
    """

    def __init__(
        self,
        sample_interval: Optional[float] = None,
        profile: bool = False,
        probe_nodes: Optional[Sequence[int]] = None,
        trace: bool = False,
        trace_sink: Optional[Callable[["TraceRecord"], None]] = None,
        trace_categories: Optional[Set[str]] = None,
        trace_max_records: Optional[int] = None,
        spans: bool = False,
        dataplane: bool = False,
        dataplane_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.registry = MetricsRegistry()
        self.sample_interval = sample_interval
        self.probe_nodes = probe_nodes
        self.trace = bool(trace) or trace_sink is not None
        self.trace_sink = trace_sink
        self.trace_categories = (
            set(trace_categories)
            if trace_categories is not None
            else set(DEFAULT_TRACE_CATEGORIES)
        )
        self.trace_max_records = trace_max_records
        #: Per-trial exploration summaries (ConvergenceTimeline.summary()).
        self.exploration_summaries: List[Dict[str, Any]] = []
        self.last_exploration: Optional[Dict[str, Any]] = None
        self._tracer: Optional["Tracer"] = None
        self.profiler: Optional[EventLoopProfiler] = (
            EventLoopProfiler() if profile else None
        )
        #: Hierarchical wall-clock spans (None = span recording off).
        self.span_recorder: Optional[SpanRecorder] = (
            SpanRecorder() if spans else None
        )
        self.probes: List[NetworkProbe] = []
        self.phases: List[PhaseTiming] = []
        self.trial_snapshots: List[Dict[str, Any]] = []
        self.manifest: Optional[RunManifest] = None
        self._trial_index = -1
        #: Trial-cache outcomes observed via :meth:`note_cache` (also
        #: mirrored into the registry as ``store_cache_hits`` /
        #: ``store_cache_misses`` counters).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Manifests of campaigns run under this session (name, payload).
        self.campaigns: List[Dict[str, Any]] = []
        self._last_spec: Any = None
        self._seeds: List[int] = []
        self._last_topology: str = ""
        self._last_counters: Dict[str, Any] = {}
        #: Raw trace records captured for the parent (worker sessions
        #: built by :meth:`for_worker` with ``capture_trace`` only).
        self._captured_trace: Optional[List["TraceRecord"]] = None
        self.dataplane_enabled = bool(dataplane) or dataplane_sink is not None
        self.dataplane_sink = dataplane_sink
        #: Per-trial data-plane impact summaries (headline dicts).
        self.dataplane_summaries: List[Dict[str, Any]] = []
        self.last_dataplane: Optional[Dict[str, Any]] = None
        self._dataplane_monitor: Optional["DataPlaneMonitor"] = None
        #: Raw data-plane records captured for the parent (worker
        #: sessions with ``capture_dataplane`` only).
        self._captured_dataplane: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Hooks called by the experiment layer
    # ------------------------------------------------------------------
    @property
    def trial_index(self) -> int:
        """Index of the trial currently attached (-1 before the first)."""
        return self._trial_index

    @property
    def probe(self) -> Optional[NetworkProbe]:
        """The probe of the most recently attached network, if any."""
        return self.probes[-1] if self.probes else None

    def make_tracer(self) -> Optional["Tracer"]:
        """A fresh causal tracer for the next trial, or None if untraced.

        The experiment layer calls this while *constructing* the trial's
        network (the tracer must exist before the simulator does); the
        session holds on to it so :meth:`note_trial` can fold the trial's
        exploration statistics once the run finishes.
        """
        if not self.trace:
            return None
        from repro.sim.trace import Tracer

        self._tracer = Tracer(
            categories=self.trace_categories,
            sink=self.trace_sink,
            max_records=self.trace_max_records,
        )
        return self._tracer

    def attach(self, network: "BGPNetwork") -> None:
        """Wire this session into a freshly built network (one per trial)."""
        self._trial_index += 1
        if self.profiler is not None:
            self.profiler.attach(network.sim)
        if self.sample_interval is not None:
            probe = NetworkProbe(
                network, self.sample_interval, nodes=self.probe_nodes
            )
            probe.start()
            self.probes.append(probe)
        if self.dataplane_enabled:
            from repro.obs.dataplane import DataPlaneMonitor

            monitor = DataPlaneMonitor()
            monitor.attach(network)
            self._dataplane_monitor = monitor

    def on_failure(self, network: "BGPNetwork") -> None:
        """Re-arm the probe after failure injection (it detaches at
        quiescence, which the end of warm-up is)."""
        probe = self.probe
        if probe is not None and probe.network is network:
            probe.start()

    def record_phase(
        self,
        name: str,
        wall_seconds: float,
        sim_seconds: float = 0.0,
        events: int = 0,
    ) -> None:
        label = name if self._trial_index <= 0 else f"{name}[{self._trial_index}]"
        self.phases.append(
            PhaseTiming(label, wall_seconds, sim_seconds, events)
        )

    def note_trial(
        self,
        *,
        spec: Any,
        seed: int,
        topology: str,
        counters: Dict[str, Any],
        result: Any = None,
    ) -> None:
        """Record one finished trial's context and metric snapshot."""
        self._last_spec = spec
        self._seeds.append(seed)
        self._last_topology = topology
        self._last_counters = dict(counters)
        snapshot: Dict[str, Any] = {
            "kind": "trial",
            "trial": self._trial_index,
            "seed": seed,
            "counters": dict(counters),
        }
        if result is not None:
            snapshot["convergence_delay"] = result.convergence_delay
            snapshot["messages_sent"] = result.messages_sent
            snapshot["warmup_wall"] = result.warmup_wall
            snapshot["convergence_wall"] = result.convergence_wall
        if self._tracer is not None:
            # Fold the trial's causal trace into exploration analytics,
            # then release the records (the sink, if any, has them all).
            from repro.analysis.convergence import ConvergenceTimeline

            t0 = result.failure_time if result is not None else None
            timeline = ConvergenceTimeline.from_records(
                self._tracer.records, t0=t0
            )
            exploration = timeline.summary()
            exploration["trace_dropped"] = self._tracer.dropped
            snapshot["exploration"] = exploration
            self.exploration_summaries.append(exploration)
            self.last_exploration = exploration
            self._tracer.clear()
            self._tracer = None
        if result is not None and getattr(result, "dataplane", None):
            snapshot["dataplane"] = result.dataplane
        self.trial_snapshots.append(snapshot)
        if self.probes:
            # The samples are the session's to keep; the trial's network
            # is not (it would pin every trial's RIBs for the session).
            self.probes[-1].network = None

    def finish_dataplane(
        self,
        network: "BGPNetwork",
        t0: float,
        seed: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """Finalize the trial's data-plane monitor and fold its timeline.

        Called by the experiment layer after convergence, before the
        :class:`TrialResult` is built.  Returns the headline summary
        (the ``TrialResult.dataplane`` payload) or None when monitors
        are off.  Transition records stream to :attr:`dataplane_sink`
        (or the worker capture buffer) behind a ``dataplane_trial``
        delimiter so offline reports can split multi-trial files.
        """
        monitor = self._dataplane_monitor
        if monitor is None or network.dataplane is not monitor:
            return None
        end = max(network.last_activity, t0)
        monitor.finalize(end)
        from repro.analysis.dataplane import DataPlaneTimeline

        timeline = DataPlaneTimeline.from_transitions(
            monitor.transitions, t0=t0, end=end
        )
        summary = timeline.headline()
        self.dataplane_summaries.append(summary)
        self.last_dataplane = summary
        meta: Dict[str, Any] = {
            "kind": "dataplane_trial",
            "trial": self._trial_index,
            "t0": t0,
            "end": end,
        }
        if seed is not None:
            meta["seed"] = seed
        if self.dataplane_sink is not None:
            self.dataplane_sink(meta)
            for record in monitor.records():
                self.dataplane_sink(record)
        elif self._captured_dataplane is not None:
            self._captured_dataplane.append(meta)
            self._captured_dataplane.extend(monitor.records())
        network.dataplane = None
        self._dataplane_monitor = None
        return summary

    def note_cache(self, hit: bool) -> None:
        """Record one trial-cache lookup outcome (store-backed runs)."""
        if hit:
            self.cache_hits += 1
            self.registry.counter("store_cache_hits").inc()
        else:
            self.cache_misses += 1
            self.registry.counter("store_cache_misses").inc()

    def note_campaign(self, name: str, manifest: Dict[str, Any]) -> None:
        """Attach one campaign run's manifest to this session."""
        self.campaigns.append({"name": name, "manifest": manifest})

    def counters_snapshot(self) -> Dict[str, Any]:
        """The session's headline counters as one plain dict.

        What the campaign service's ``/health`` endpoint reports for the
        daemon's lifetime session: cache traffic, trials observed, and
        campaign count — cheap enough to read on every poll.
        """
        looked_up = self.cache_hits + self.cache_misses
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (
                round(self.cache_hits / looked_up, 4) if looked_up else 0.0
            ),
            "trials_observed": self._trial_index + 1,
            "campaigns": len(self.campaigns),
        }

    # ------------------------------------------------------------------
    # Worker round-trip (parallel trial execution)
    # ------------------------------------------------------------------
    def worker_args(self) -> Dict[str, Any]:
        """A picklable recipe for building equivalent worker sessions.

        The parallel backend (:mod:`repro.core.parallel`) ships this to
        each worker process, where :meth:`for_worker` rebuilds a session
        observing exactly what this one would have observed inline.  The
        trace sink itself cannot cross the process boundary, so when one
        is installed the recipe asks workers to *capture* raw records for
        replay into the parent's sink by :meth:`absorb`.
        """
        return {
            "sample_interval": self.sample_interval,
            "profile": self.profiler is not None,
            "probe_nodes": (
                list(self.probe_nodes) if self.probe_nodes is not None else None
            ),
            "trace": self.trace,
            "trace_categories": sorted(self.trace_categories),
            "trace_max_records": self.trace_max_records,
            "capture_trace": self.trace_sink is not None,
            "spans": self.span_recorder is not None,
            "dataplane": self.dataplane_enabled,
            "capture_dataplane": self.dataplane_sink is not None,
        }

    @classmethod
    def for_worker(cls, config: Dict[str, Any]) -> "ObsSession":
        """Build a worker-local session from a :meth:`worker_args` recipe."""
        captured: Optional[List["TraceRecord"]] = (
            [] if config.get("capture_trace") else None
        )
        session = cls(
            sample_interval=config.get("sample_interval"),
            profile=bool(config.get("profile")),
            probe_nodes=config.get("probe_nodes"),
            trace=bool(config.get("trace")),
            trace_sink=captured.append if captured is not None else None,
            trace_categories=(
                set(config["trace_categories"])
                if config.get("trace_categories") is not None
                else None
            ),
            trace_max_records=config.get("trace_max_records"),
            spans=bool(config.get("spans")),
            dataplane=bool(config.get("dataplane")),
        )
        session._captured_trace = captured
        if config.get("capture_dataplane"):
            session._captured_dataplane = []
        return session

    def worker_payload(self) -> Dict[str, Any]:
        """Everything this (single-trial) worker session observed.

        Returned as plain picklable data; the parent session folds it in
        with :meth:`absorb`.  Phase names are raw (``warmup`` etc.)
        because a worker session only ever sees trial 0 — the parent
        relabels them with the global trial index.

        Sections the session never recorded (no profiler, no probes, no
        trace sink, …) are pruned before pickling — :meth:`absorb` reads
        every key with a default, so an absent section and an empty one
        fold identically, and the cross-process message stays as small
        as what was actually observed.
        """
        payload = {
            "seed": self._seeds[-1] if self._seeds else None,
            "spec": self._last_spec,
            "topology": self._last_topology,
            "counters": dict(self._last_counters),
            "snapshots": list(self.trial_snapshots),
            "phases": [
                (p.name, p.wall_seconds, p.sim_seconds, p.events)
                for p in self.phases
            ],
            "explorations": list(self.exploration_summaries),
            "metrics": self.registry.records(),
            "profile": (
                self.profiler.records() if self.profiler is not None else []
            ),
            "probes": [
                (list(p.node_samples), list(p.aggregates))
                for p in self.probes
            ],
            "trace_records": self._captured_trace,
            "spans": (
                list(self.span_recorder.records)
                if self.span_recorder is not None
                else []
            ),
            "dataplane": list(self.dataplane_summaries),
            "dataplane_records": self._captured_dataplane,
        }
        return {
            key: value
            for key, value in payload.items()
            if value or key in ("seed", "spec")
        }

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Fold one worker trial's payload into this (parent) session.

        Called in seed order by the experiment layer, so trial indices,
        gauge final values and trace replay order all match what the
        inline serial path would have produced.
        """
        self._trial_index += 1
        index = self._trial_index
        seed = payload.get("seed")
        if seed is not None:
            self._seeds.append(seed)
        if payload.get("spec") is not None:
            self._last_spec = payload["spec"]
        if payload.get("topology"):
            self._last_topology = payload["topology"]
        if payload.get("counters"):
            self._last_counters = dict(payload["counters"])
        for name, wall, sim_seconds, events in payload.get("phases", ()):
            label = name if index <= 0 else f"{name}[{index}]"
            self.phases.append(
                PhaseTiming(label, wall, sim_seconds, events)
            )
        for snapshot in payload.get("snapshots", ()):
            renumbered = dict(snapshot)
            renumbered["trial"] = index
            self.trial_snapshots.append(renumbered)
        for exploration in payload.get("explorations", ()):
            self.exploration_summaries.append(exploration)
            self.last_exploration = exploration
        self.registry.absorb_records(payload.get("metrics", ()))
        if self.profiler is not None:
            self.profiler.absorb_records(payload.get("profile", ()))
        for node_samples, aggregates in payload.get("probes", ()):
            self.probes.append(ProbeData(node_samples, aggregates))
        if self.trace_sink is not None:
            for record in payload.get("trace_records") or ():
                self.trace_sink(record)
        if self.span_recorder is not None:
            # Worker spans graft under "workers/" so the rollup keeps
            # parent orchestration time and worker busy time apart.
            self.span_recorder.absorb_records(
                payload.get("spans") or (), prefix="workers"
            )
        for summary in payload.get("dataplane") or ():
            self.dataplane_summaries.append(summary)
            self.last_dataplane = summary
        if self.dataplane_sink is not None:
            for record in payload.get("dataplane_records") or ():
                if record.get("kind") == "dataplane_trial":
                    # Worker trial indices are all 0; relabel with the
                    # parent's, like phase names and snapshots above.
                    record = dict(record, trial=index)
                self.dataplane_sink(record)

    # ------------------------------------------------------------------
    # Finalization + export
    # ------------------------------------------------------------------
    def finalize(
        self,
        *,
        kind: str = "repro-run",
        command: str = "",
        spec: Any = None,
        seeds: Optional[List[int]] = None,
        topology: str = "",
        extra: Optional[Dict[str, Any]] = None,
    ) -> RunManifest:
        """Build (and remember) the manifest for this session."""
        spec = spec if spec is not None else self._last_spec
        if seeds is None:
            # Every seed observed, in trial order, deduplicated (sweeps
            # reuse the same seed list across points).
            seeds = list(dict.fromkeys(self._seeds))
        manifest = RunManifest.create(
            kind=kind,
            command=command,
            spec=spec,
            seeds=seeds,
            topology=topology or self._last_topology,
            phases=list(self.phases),
            counters=dict(self._last_counters),
            extra=extra,
        )
        manifest.extra.setdefault("trials", self._trial_index + 1)
        if self.profiler is not None:
            manifest.extra.setdefault(
                "profiled_events", self.profiler.total_events
            )
            # Throughput inline, so BENCH_sweep.json and the manifest
            # agree on the events/s number without re-deriving it.
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
        if self.exploration_summaries:
            manifest.extra.setdefault(
                "exploration", self.exploration_aggregate()
            )
        if self.dataplane_summaries:
            manifest.extra.setdefault(
                "dataplane", self.dataplane_aggregate()
            )
        if self.cache_hits or self.cache_misses:
            manifest.extra.setdefault(
                "store_cache",
                {"hits": self.cache_hits, "misses": self.cache_misses},
            )
        if self.campaigns:
            manifest.extra.setdefault("campaigns", jsonable(self.campaigns))
        self.manifest = manifest
        return manifest

    def exploration_aggregate(self) -> Dict[str, Any]:
        """Exploration counts rolled up across every traced trial."""
        summaries = self.exploration_summaries
        totals = [s["paths_explored_total"] for s in summaries]
        return {
            "trials": len(summaries),
            "paths_explored_total": sum(totals),
            "paths_explored_max_trial": max(totals, default=0),
            "route_changes_total": sum(
                s["route_changes"] for s in summaries
            ),
            "settle_p95_max": max(
                (s["settle"]["p95"] for s in summaries), default=0.0
            ),
        }

    def dataplane_aggregate(self) -> Dict[str, Any]:
        """Data-plane impact rolled up across every monitored trial."""
        summaries = self.dataplane_summaries
        totals = [s["unreachable_seconds_total"] for s in summaries]
        return {
            "trials": len(summaries),
            "unreachable_seconds_total": round(sum(totals), 6),
            "unreachable_seconds_max_trial": round(
                max(totals, default=0.0), 6
            ),
            "loop_episodes": sum(s["loop_episodes"] for s in summaries),
            "blackhole_episodes": sum(
                s["blackhole_episodes"] for s in summaries
            ),
            "pairs_never_recovered_max": max(
                (s["pairs_never_recovered"] for s in summaries), default=0
            ),
        }

    def export(
        self, directory: Union[str, Path], command: str = ""
    ) -> List[Path]:
        """Write every artifact this session holds; returns the paths."""
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
            f"<ObsSession trials={self._trial_index + 1} "
            f"metrics={len(self.registry)} probes={len(self.probes)} "
            f"profile={self.profiler is not None}>"
        )
