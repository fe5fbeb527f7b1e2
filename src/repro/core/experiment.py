"""Convergence experiments: warm-up, failure, measurement, trials.

The measurement protocol mirrors the paper's:

1. build the network, originate every prefix, run to quiescence
   (*warm-up* — the steady state before the failure);
2. inject the failure at T0 (all routers in the scenario die, surviving
   neighbors see their sessions drop immediately);
3. run to quiescence again; the **convergence delay** is the time of the
   last routing activity (update sent/processed or Loc-RIB change) minus
   T0, and the **message count** is the number of UPDATE messages sent
   after T0 — the two quantities plotted in every figure.

:class:`ExperimentResult` aggregates repeated trials, since individual
runs are noisy exactly the way the paper's were; a batch of them runs as
a campaign (:func:`repro.store.campaign.run_campaign`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.session import ObsSession, TrialObserver
from repro.obs.spans import span

from repro.bgp.config import DEFAULT_PROCESSING_RANGE, BGPConfig
from repro.bgp.damping import DampingConfig
from repro.bgp.mrai import ConstantMRAI, MRAIPolicy
from repro.bgp.policy import RoutingPolicy
from repro.bgp.network import BGPNetwork
from repro.failures.scenarios import (
    FailureScenario,
    geographic_failure,
    random_failure,
)
from repro.sim.rng import RandomStreams
from repro.sim.stats import OnlineStats
from repro.topology.graph import Topology


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines one convergence experiment except the seed."""

    mrai: MRAIPolicy = field(default_factory=lambda: ConstantMRAI(0.5))
    queue_discipline: str = "fifo"
    tcp_batch_size: int = 8
    failure_fraction: float = 0.05
    failure_kind: str = "geographic"
    failure_center: Optional[Tuple[float, float]] = None
    processing_delay_range: Tuple[float, float] = DEFAULT_PROCESSING_RANGE
    withdrawal_rate_limiting: bool = False
    sender_side_loop_detection: bool = True
    per_destination_mrai: bool = False
    #: Optional RFC-2439 flap damping (the deployed-practice comparison).
    damping: Optional[DampingConfig] = None
    #: Optional routing policy; None = the paper's unrestricted setting.
    #: Note: ``validate=True`` uses the connected-component reachability
    #: oracle, which policies violate by design — policy-routed networks
    #: need the valley-free one (``tests/reference_valley_free.py``).
    policy: Optional[RoutingPolicy] = None
    #: Hold-timer failure detection delay (0 = the paper's instantaneous
    #: detection); jitter staggers neighbors' hold-timer expiries.
    detection_delay: float = 0.0
    detection_jitter: float = 0.0
    #: Hard cap on simulated seconds after the failure (safety net; the
    #: paper's scenarios converge well before this).
    max_convergence_time: float = 3600.0
    #: Hard cap on simulated warm-up seconds.
    max_warmup_time: float = 3600.0
    #: Run the routing validator after warm-up and after convergence.
    validate: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.failure_fraction <= 0.5):
            raise ValueError(
                "failure_fraction must be in (0, 0.5]; the paper restricts "
                "failures to at most 20% of the network"
            )
        if self.failure_kind not in ("geographic", "random"):
            raise ValueError(f"unknown failure kind {self.failure_kind!r}")
        if self.detection_delay < 0 or self.detection_jitter < 0:
            raise ValueError("detection delay/jitter must be non-negative")

    def to_bgp_config(self) -> BGPConfig:
        return BGPConfig(
            mrai_policy=self.mrai,
            processing_delay_range=self.processing_delay_range,
            queue_discipline=self.queue_discipline,
            tcp_batch_size=self.tcp_batch_size,
            withdrawal_rate_limiting=self.withdrawal_rate_limiting,
            sender_side_loop_detection=self.sender_side_loop_detection,
            per_destination_mrai=self.per_destination_mrai,
            damping=self.damping,
            policy=self.policy,
        )

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (sweep convenience)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        """The fully explicit declarative scheme dict for this spec.

        ``build_spec(spec.to_dict()).to_dict() == spec.to_dict()`` for
        every spec whose policies are registry-serializable; raises
        :class:`repro.specs.serialize.SpecSerializationError` otherwise.
        """
        from repro.specs.serialize import spec_to_dict

        return spec_to_dict(self)


@dataclass(frozen=True)
class TrialResult:
    """Measurements from a single warm-up + failure + convergence run."""

    convergence_delay: float
    messages_sent: int
    withdrawals_sent: int
    updates_processed: int
    stale_dropped: int
    route_changes: int
    failure_size: int
    failure_time: float
    warmup_time: float
    warmup_messages: int
    events_executed: int
    seed: int
    truncated: bool
    #: Wall-clock (not simulated) seconds spent in each phase, so BENCH
    #: records can track simulator speed across perf PRs.  Excluded from
    #: equality: two identical simulations differ in host timing noise.
    warmup_wall: float = field(default=0.0, compare=False)
    convergence_wall: float = field(default=0.0, compare=False)
    #: Data-plane impact summary (see
    #: :meth:`repro.analysis.dataplane.DataPlaneTimeline.headline`) when
    #: the trial ran with an ObsSession's monitors on; None otherwise.
    #: Excluded from equality so store-cached results from unmonitored
    #: runs still compare equal to freshly monitored ones (the monitor
    #: is trajectory-neutral, so every compared field is unaffected).
    dataplane: Optional[Dict[str, Any]] = field(default=None, compare=False)


@dataclass
class ExperimentResult:
    """Aggregate over trials of the same spec.

    ``trials`` is the only state: every statistic (delay, messages) is
    folded from it on demand, in order, so a result is the same however
    its trials got there.
    """

    spec: ExperimentSpec
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def truncated(self) -> int:
        """Trials cut off at ``max_convergence_time``: lower-bound delays."""
        return sum(t.truncated for t in self.trials)

    def _stats(self, attr: str) -> OnlineStats:
        """Statistics over any TrialResult attribute, in trial order."""
        stats = OnlineStats()
        stats.extend(getattr(t, attr) for t in self.trials)
        return stats

    @property
    def delay(self) -> OnlineStats:
        return self._stats("convergence_delay")

    @property
    def messages(self) -> OnlineStats:
        return self._stats("messages_sent")

    @property
    def mean_delay(self) -> float:
        return self.delay.mean

    @property
    def mean_messages(self) -> float:
        return self.messages.mean

    def __str__(self) -> str:
        d = self.delay
        m = self.messages
        return (
            f"{self.n} trials: delay {d.mean:.2f}s (+/-{d.stdev:.2f}), "
            f"messages {m.mean:.0f} (+/-{m.stdev:.0f})"
        )


def build_scenario(
    topology: Topology, spec: ExperimentSpec, seed: int
) -> FailureScenario:
    """Derive the failure scenario a spec describes for a topology."""
    if spec.failure_kind == "geographic":
        return geographic_failure(
            topology, spec.failure_fraction, spec.failure_center
        )
    rng = RandomStreams(seed).get("failure-selection")
    return random_failure(topology, spec.failure_fraction, rng)


def run_experiment(
    topology: Topology,
    spec: ExperimentSpec,
    seed: int = 0,
    scenario: Optional[FailureScenario] = None,
    obs: Optional[ObsSession] = None,
) -> TrialResult:
    """One full warm-up + failure + convergence measurement.

    ``obs`` observes the run for an :class:`~repro.obs.session.ObsSession`:
    a :class:`~repro.obs.session.TrialObserver` built from the session's
    recipe copies the network's counters into a metrics registry, samples
    per-node time series, accounts event-loop wall time (when profiling)
    and times the warm-up / failure / convergence phases, and its record
    enters the session through :meth:`~repro.obs.session.ObsSession.absorb`
    — the same way a batch trial's does.  Without ``obs`` the run is
    unobserved.  A session with ``trace=True`` additionally attaches a
    causal tracer to the trial and records its path-exploration /
    settle-time summary.  Observation is passive: the protocol
    trajectory is bit-identical with or without it.
    """
    if obs is None:
        return simulate_trial(topology, spec, seed, scenario)
    from repro.specs.serialize import spec_to_dict

    # The session records the spec as its declarative dict: a spec with
    # none is refused before it is simulated, not after.
    spec_to_dict(spec)
    observer = TrialObserver(obs.worker_args(), sink=obs.sink)
    result = simulate_trial(topology, spec, seed, scenario, observer)
    obs.absorb(observer.record(), spec=spec, topology=topology.summary())
    return result


def simulate_trial(
    topology: Topology,
    spec: ExperimentSpec,
    seed: int = 0,
    scenario: Optional[FailureScenario] = None,
    observer: Optional[TrialObserver] = None,
) -> TrialResult:
    """The measurement itself, observed by ``observer`` and nothing else.

    What :func:`run_experiment` and the batch pipeline's
    :func:`~repro.core.parallel.execute_trial` both run, so a trial is
    observed exactly once whichever of the two started it.
    """
    network = BGPNetwork(
        topology,
        spec.to_bgp_config(),
        seed=seed,
        tracer=observer.tracer if observer is not None else None,
        metrics=observer.registry if observer is not None else None,
    )
    try:
        if observer is not None:
            observer.attach(network)

        wall0 = time.perf_counter()
        with span("trial.warmup", seed=seed):
            network.start()
            network.run_until_quiet(max_time=spec.max_warmup_time)
        warmup_wall = time.perf_counter() - wall0
        if not network.is_quiescent():
            raise RuntimeError(
                f"warm-up did not converge within {spec.max_warmup_time}s "
                f"of simulated time"
            )
        warmup_time = network.last_activity
        warmup_events = network.sim.events_executed
        warmup_snapshot = network.counters.snapshot()
        if observer is not None:
            observer.record_phase(
                "warmup", warmup_wall, sim_seconds=warmup_time, events=warmup_events
            )
        if spec.validate:
            from repro.core.validation import validate_routing

            validate_routing(network)

        if scenario is None:
            scenario = build_scenario(topology, spec, seed)
        wall1 = time.perf_counter()
        with span("trial.failure"):
            t0 = network.fail_nodes(
                scenario.nodes,
                detection_delay=spec.detection_delay,
                detection_jitter=spec.detection_jitter,
            )
        if observer is not None:
            observer.record_phase("failure", time.perf_counter() - wall1)
            observer.on_failure()

        wall2 = time.perf_counter()
        with span("trial.convergence"):
            network.run_until_quiet(max_time=t0 + spec.max_convergence_time)
        convergence_wall = time.perf_counter() - wall2
        truncated = not network.is_quiescent()
        if observer is not None:
            observer.record_phase(
                "convergence",
                convergence_wall,
                sim_seconds=network.last_activity - t0,
                events=network.sim.events_executed - warmup_events,
            )
        if spec.validate and not truncated:
            from repro.core.validation import validate_routing

            validate_routing(network)

        diff = network.counters.diff(warmup_snapshot)
        dataplane_summary = (
            observer.finish_dataplane(network, t0=t0, seed=seed)
            if observer is not None
            else None
        )
        result = TrialResult(
            convergence_delay=network.last_activity - t0,
            messages_sent=diff.get("updates_sent", 0),
            withdrawals_sent=diff.get("withdrawals_sent", 0),
            updates_processed=diff.get("updates_processed", 0),
            stale_dropped=diff.get("updates_dropped_stale", 0),
            route_changes=diff.get("route_changes", 0),
            failure_size=scenario.size,
            failure_time=t0,
            warmup_time=warmup_time,
            warmup_messages=warmup_snapshot.get("updates_sent", 0),
            events_executed=network.sim.events_executed,
            seed=seed,
            truncated=truncated,
            warmup_wall=warmup_wall,
            convergence_wall=convergence_wall,
            dataplane=dataplane_summary,
        )
        if observer is not None:
            observer.note_trial(result, network.counters.snapshot())
        return result
    finally:
        # Also on the "did not converge" path: see BGPNetwork.close.
        network.close()
