"""Tests for the convergence timeline, path-exploration analytics and the
trace-analysis report — including the trajectory-neutrality guarantees the
golden regression suite relies on."""

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.analysis.convergence import (
    ConvergenceTimeline,
    analyze_trace,
    analyze_trace_file,
    render_report,
)
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.obs.session import ObsSession
from repro.sim.timers import Jitter
from repro.sim.trace import JsonlSink, Tracer, load_trace
from repro.topology.skewed import skewed_topology
from tests.conftest import (
    clique_topology,
    line_topology,
    total_loc_rib_routes,
)


def traced_run(topology, fail_node):
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    tracer = Tracer()
    net = BGPNetwork(topology, config, seed=1, tracer=tracer)
    net.start()
    net.run_until_quiet()
    t0 = net.fail_nodes([fail_node])
    net.run_until_quiet()
    return net, tracer, t0


# ----------------------------------------------------------------------
# Golden small scenarios
# ----------------------------------------------------------------------
def test_line_failure_explores_no_paths():
    """A dead-end line failure is pure withdrawal: zero path exploration."""
    net, tracer, t0 = traced_run(line_topology(4), 3)
    timeline = ConvergenceTimeline.from_records(tracer.records)
    assert timeline.t0 == t0
    # Nodes 0, 1, 2 each lose dest 3 with no alternative.
    assert set(timeline.histories) == {(0, 3), (1, 3), (2, 3)}
    assert timeline.total_paths_explored() == 0
    assert timeline.exploration_histogram() == {0: 3}
    assert all(
        h.changes[-1][1] is None for h in timeline.histories.values()
    )
    assert set(timeline.settle_times()) == {3}


def test_clique_failure_explores_stored_backups():
    """A 4-clique failure walks the classic transient-path sequence."""
    net, tracer, t0 = traced_run(clique_topology(4), 0)
    timeline = ConvergenceTimeline.from_records(tracer.records)
    # The three survivors each explore backup paths for dest 0 before
    # concluding it is unreachable.
    assert set(timeline.histories) == {(1, 0), (2, 0), (3, 0)}
    assert timeline.total_paths_explored() == 11
    assert timeline.exploration_histogram() == {3: 1, 4: 2}
    assert timeline.max_exploration() == 4
    assert all(
        h.changes[-1][1] is None for h in timeline.histories.values()
    )
    stats = timeline.settle_stats()
    assert 0.0 < stats["p50"] <= stats["p95"] <= stats["max"]


def test_settle_timeline_measures_from_t0():
    net, tracer, t0 = traced_run(clique_topology(4), 0)
    timeline = ConvergenceTimeline.from_records(tracer.records)
    ordering = timeline.destination_timeline()
    assert ordering == sorted(ordering, key=lambda kv: kv[1])
    assert all(settle >= 0.0 for _, settle in ordering)
    # Settling never outlasts the measured convergence window.
    assert max(s for _, s in ordering) <= net.last_activity - t0 + 1e-9


def test_explicit_t0_overrides_detection():
    net, tracer, t0 = traced_run(clique_topology(4), 0)
    # Analyzing from t=0 counts the warm-up churn too.
    full = ConvergenceTimeline.from_records(tracer.records, t0=0.0)
    post = ConvergenceTimeline.from_records(tracer.records)
    assert len(full.histories) > len(post.histories)
    assert full.t0 == 0.0


def test_timeline_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    with JsonlSink(path) as sink:
        tracer = Tracer(sink=sink)
        net = BGPNetwork(clique_topology(4), config, seed=1, tracer=tracer)
        net.start()
        net.run_until_quiet()
        net.fail_nodes([0])
        net.run_until_quiet()
    assert (
        ConvergenceTimeline.from_records(load_trace(path)).summary()
        == ConvergenceTimeline.from_records(tracer.records).summary()
    )
    report = analyze_trace_file(path)
    assert report == analyze_trace(tracer.records)


def test_report_structure_and_rendering():
    net, tracer, _ = traced_run(clique_topology(4), 0)
    report = analyze_trace(tracer.records)
    assert report["causality"]["failure_roots"][0]["scope"] == [0]
    assert report["convergence"]["paths_explored_total"] == 11
    text = render_report(report)
    assert "causal trace analysis" in text
    assert "FAILURE" in text
    assert "paths explored" in text
    assert "slowest destinations" in text


# ----------------------------------------------------------------------
# The explanatory claim: dynamic MRAI shrinks path exploration
# ----------------------------------------------------------------------
def test_dynamic_mrai_explores_fewer_paths_than_static():
    """Same topology, same seed: the dynamic scheme must settle on fewer
    distinct transient paths than constant-0.5 — the mechanism behind the
    fig07 delay gap."""
    totals = {}
    for label, mrai in (
        ("static", ConstantMRAI(0.5)),
        ("dynamic", DynamicMRAI()),
    ):
        obs = ObsSession(trace=True)
        spec = ExperimentSpec(mrai=mrai, failure_fraction=0.1)
        run_experiment(skewed_topology(40, seed=3), spec, seed=1, obs=obs)
        exploration = obs.trial_snapshots[-1]["exploration"]
        totals[label] = exploration["paths_explored_total"]
    assert totals["dynamic"] < totals["static"]


# ----------------------------------------------------------------------
# Trajectory neutrality (the golden-regression guarantee)
# ----------------------------------------------------------------------
def test_tracing_keeps_golden_counters_identical():
    """The zero-service 5-clique warm-up from test_regression_golden must
    produce byte-identical counters with causal tracing enabled."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(1.0),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )

    def outcome(tracer):
        net = BGPNetwork(clique_topology(5), config, seed=1, tracer=tracer)
        net.start()
        net.run_until_quiet()
        return (
            net.counters.snapshot(),
            total_loc_rib_routes(net),
            net.last_activity,
            net.sim.events_executed,
        )

    untraced = outcome(None)
    traced = outcome(Tracer())
    assert untraced == traced
    assert untraced[0]["updates_sent"] == 80
    assert untraced[0]["route_changes"] == 25


def test_traced_experiment_equals_untraced_experiment():
    """Full run_experiment equality: tracing must not perturb the
    trajectory (delay, messages, events) on a realistic topology."""
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    plain = run_experiment(skewed_topology(30, seed=7), spec, seed=3)
    obs = ObsSession(trace=True)
    traced = run_experiment(
        skewed_topology(30, seed=7), spec, seed=3, obs=obs
    )
    assert plain == traced
    assert "exploration" in obs.trial_snapshots[-1]
