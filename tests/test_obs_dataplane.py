"""Data-plane monitor: loops/blackholes/edge cases, neutrality, round-trips."""

import json

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.routes import Route
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.obs.dataplane import DataPlaneMonitor
from repro.obs.session import ObsSession, TrialObserver
from repro.sim.timers import Jitter
from repro.sim.trace import (
    BLACKHOLE,
    DOWN,
    LOOP,
    OK,
    JsonlSink,
    TraceRecord,
    load_trace,
)
from repro.store.result_store import trial_from_dict, trial_to_dict
from repro.topology.graph import Router, Topology
from repro.topology.skewed import skewed_topology
from tests.conftest import (
    clique_topology,
    converged_network,
    line_topology,
    run_cell,
)


def _route(dest, path, peer):
    return Route(dest=dest, path=tuple(path), peer=peer)


def _local(dest):
    return Route(dest=dest, path=(dest,), peer=None)


def status_of(mon, node, dest):
    """A pair's current status: that of its last transition (None if the
    pair was never evaluated)."""
    return next(
        (s for _, n, d, s, _ in reversed(mon.transitions) if (n, d) == (node, dest)),
        None,
    )


# ----------------------------------------------------------------------
# Monitor unit tests (synthetic, driven directly)
# ----------------------------------------------------------------------
def test_walk_reaches_origin_with_hop_counts():
    mon = DataPlaneMonitor()
    mon._alive.update({1, 2, 3})
    mon.on_best_route(3, 9, _local(9), 0.0)
    mon.on_best_route(2, 9, _route(9, (9,), 3), 0.0)
    mon.on_best_route(1, 9, _route(9, (2, 9), 2), 0.0)
    mon.finalize(1.0)
    assert status_of(mon, 1, 9) == OK
    assert status_of(mon, 3, 9) == OK
    # 1 -> 2 -> 3(origin): 2 hops; 2 -> 3: 1 hop; origin: 0 hops.
    hops = {t[1]: t[4] for t in mon.transitions}
    assert hops == {1: 2, 2: 1, 3: 0}


def test_blackhole_and_loop_detection():
    mon = DataPlaneMonitor()
    mon._alive.update({1, 2, 3})
    # No routes at all: everything blackholes at t=0.
    mon.on_best_route(1, 9, None, 0.0)
    # A two-node loop forms at t=1: 1 -> 2 -> 1; 3 has no route.
    mon.on_best_route(1, 9, _route(9, (2, 9), 2), 1.0)
    mon.on_best_route(2, 9, _route(9, (1, 9), 1), 1.0)
    mon.finalize(2.0)
    assert status_of(mon, 1, 9) == LOOP
    assert status_of(mon, 2, 9) == LOOP
    assert status_of(mon, 3, 9) == BLACKHOLE


def test_feeder_into_loop_also_loops():
    mon = DataPlaneMonitor()
    mon._alive.update({1, 2, 3})
    mon.on_best_route(2, 9, _route(9, (3, 9), 3), 0.0)
    mon.on_best_route(3, 9, _route(9, (2, 9), 2), 0.0)
    mon.on_best_route(1, 9, _route(9, (2, 3, 9), 2), 0.0)  # feeds the loop
    mon.finalize(1.0)
    assert status_of(mon, 1, 9) == LOOP
    assert status_of(mon, 2, 9) == LOOP
    assert status_of(mon, 3, 9) == LOOP


def test_same_instant_changes_coalesce_to_one_evaluation():
    """A loop that forms and heals within one simulated instant never
    existed as far as the data plane is concerned: per-timestamp lazy
    evaluation records no zero-duration episode."""
    mon = DataPlaneMonitor()
    mon._alive.update({1, 2})
    mon.on_best_route(2, 9, _local(9), 0.0)
    mon.on_best_route(1, 9, _route(9, (2, 9), 2), 0.0)
    mon.finalize(0.5)
    before = list(mon.transitions)
    # At t=1.0 the pair briefly points 1 -> 2 -> 1 ... and heals in the
    # same instant (2 re-learns its local route).
    mon.on_best_route(2, 9, _route(9, (1, 9), 1), 1.0)
    mon.on_best_route(2, 9, _local(9), 1.0)
    mon.finalize(2.0)
    assert mon.transitions == before  # nothing changed observably
    assert status_of(mon, 1, 9) == OK


def test_loop_that_forms_and_heals_across_instants():
    """Within one MRAI round (sub-second), a transient loop appears and
    disappears; both edges must be recorded with a positive duration."""
    mon = DataPlaneMonitor()
    mon._alive.update({1, 2})
    mon.on_best_route(2, 9, _local(9), 0.0)
    mon.on_best_route(1, 9, _route(9, (2, 9), 2), 0.0)
    mon.on_best_route(2, 9, _route(9, (1, 9), 1), 1.0)  # loop forms
    mon.on_best_route(2, 9, _local(9), 1.25)  # heals mid-MRAI
    mon.finalize(2.0)
    looped = [t for t in mon.transitions if t[3] == LOOP]
    assert {t[1] for t in looped} == {1, 2}
    assert all(t[0] == 1.0 for t in looped)
    assert status_of(mon, 1, 9) == OK
    assert status_of(mon, 2, 9) == OK
    healed = [
        t for t in mon.transitions if t[0] == 1.25 and t[3] == OK
    ]
    assert len(healed) == 2


def test_node_failure_closes_pairs_as_down_and_purges_state():
    mon = DataPlaneMonitor()
    mon._alive.update({1, 2})
    mon.on_best_route(2, 9, _local(9), 0.0)
    mon.on_best_route(1, 9, _route(9, (2, 9), 2), 0.0)
    mon.on_nodes_failed([2], 1.0)
    mon.finalize(2.0)
    assert status_of(mon, 2, 9) == DOWN
    assert status_of(mon, 1, 9) == BLACKHOLE  # next hop died


# ----------------------------------------------------------------------
# Edge cases against real networks
# ----------------------------------------------------------------------
def test_destination_withdrawn_everywhere_is_all_blackhole():
    """Killing a prefix's only origin blackholes it at every survivor,
    permanently (pairs_never_recovered counts them)."""
    topo = line_topology(3)
    net = converged_network(topo)
    obs = TrialObserver(ObsSession(dataplane=True).worker_args())
    obs.attach(net)
    t0 = net.fail_nodes([2])
    net.run_until_quiet(max_time=3600)
    summary = obs.finish_dataplane(net, t0=t0, seed=1)
    # Dest 2's origin is gone: nodes 0 and 1 end the window blackholed.
    assert summary["pairs_never_recovered"] == 2
    assert summary["unreachable_seconds_total"] > 0.0
    # finish_dataplane detaches the monitor from the network.
    assert net.dataplane is None


def test_single_node_topology():
    topo = Topology(name="single")
    topo.add_router(Router(node_id=0, asn=0, x=0.0, y=0.0))
    config = BGPConfig(mrai_policy=ConstantMRAI(0.5))
    net = BGPNetwork(topo, config, seed=1)
    obs = TrialObserver(ObsSession(dataplane=True).worker_args())
    obs.attach(net)
    net.start()
    net.run_until_quiet(max_time=60)
    summary = obs.finish_dataplane(net, t0=0.0, seed=1)
    # One origin pair, trivially ok forever: no unreachability at all.
    assert summary["pairs"] == 1
    assert summary["unreachable_seconds_total"] == 0.0
    assert summary["loop_episodes"] == 0
    assert summary["blackhole_episodes"] == 0
    assert summary["pairs_never_recovered"] == 0


def test_monitored_experiment_counts_transient_damage():
    topo = skewed_topology(30, seed=1)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    obs = ObsSession(dataplane=True)
    result = run_experiment(topo, spec, seed=1, obs=obs)
    dp = result.dataplane
    assert dp is not None
    assert dp["pairs"] > 0
    assert dp["unreachable_seconds_total"] > 0.0
    # 3 dead origins x 27 survivors: their prefixes never come back.
    assert dp["pairs_never_recovered"] == 3 * 27
    assert dp["window_seconds"] == pytest.approx(result.convergence_delay)
    assert obs.trial_snapshots[-1]["dataplane"] == dp


# ----------------------------------------------------------------------
# Trajectory neutrality (golden pins)
# ----------------------------------------------------------------------
def test_monitor_is_trajectory_neutral_golden():
    """The golden 5-clique counters hold with the monitor attached."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(1.0),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    net = BGPNetwork(clique_topology(5), config, seed=1)
    DataPlaneMonitor().attach(net)
    net.start()
    net.run_until_quiet()
    assert net.counters["updates_sent"] == 80
    assert net.counters["route_changes"] == 25


def test_monitor_does_not_change_experiment_results():
    topo = skewed_topology(30, seed=7)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    bare = run_experiment(topo, spec, seed=3)
    obs = ObsSession(dataplane=True)
    monitored = run_experiment(topo, spec, seed=3, obs=obs)
    assert monitored == bare  # dataplane field excluded from equality
    assert monitored.dataplane is not None and bare.dataplane is None


# ----------------------------------------------------------------------
# Worker round-trip under jobs > 1
# ----------------------------------------------------------------------
def test_dataplane_worker_round_trip_parallel():
    seeds = [1, 2, 3]
    cell = dict(scheme={"mrai": 0.5}, seeds=seeds, nodes=12, failure=0.2)

    serial_obs = ObsSession(dataplane=True)
    serial = run_cell(**cell, jobs=1, obs=serial_obs)
    serial_records = []
    sink_obs = ObsSession(dataplane=True, sink=serial_records.append)
    run_cell(**cell, jobs=1, obs=sink_obs)

    parallel_records = []
    par_obs = ObsSession(dataplane=True, sink=parallel_records.append)
    parallel = run_cell(**cell, jobs=2, obs=par_obs)

    assert parallel.trials == serial.trials
    assert [t.dataplane for t in parallel.trials] == [
        t.dataplane for t in serial.trials
    ]
    serial_summaries = [s["dataplane"] for s in serial_obs.trial_snapshots]
    assert [s["dataplane"] for s in par_obs.trial_snapshots] == serial_summaries
    # Sink replay is bit-identical, and each trial's delimiter carries
    # its own seed: the parent stamps nothing.
    assert parallel_records == serial_records
    assert [
        r.detail[0]
        for r in parallel_records
        if r.category == "dataplane_trial"
    ] == seeds
    manifest = par_obs.finalize(command="test")
    agg = manifest.extra["dataplane"]
    assert agg["trials"] == len(seeds)
    assert agg["unreachable_seconds_total"] == pytest.approx(
        sum(s["unreachable_seconds_total"] for s in serial_summaries)
    )


def test_worker_args_carry_dataplane_flags():
    obs = ObsSession(dataplane=True, sink=lambda r: None)
    config = obs.worker_args()
    assert config["dataplane"] is True
    assert config["sink"] is True
    assert len(config) == 6
    # An observer built from the recipe monitors its trial and, the
    # session having a sink it cannot reach, buffers the raw records —
    # with no tracer, since the session does not trace.
    net = converged_network(line_topology(3))
    worker = TrialObserver(config)
    assert worker.tracer is None
    worker.attach(net)
    assert net.dataplane is worker.monitor
    t0 = net.fail_nodes([2])
    worker.finish_dataplane(net, t0=t0, seed=7)
    delimiter, *transitions = worker.record()["records"]
    assert delimiter.category == "dataplane_trial"
    assert (delimiter.time, delimiter.node) == (t0, None)
    assert delimiter.detail == (7, t0)  # (seed, end): nothing ran since
    assert transitions
    assert {r.category for r in transitions} == {"dataplane"}
    off = ObsSession().worker_args()
    assert off["dataplane"] is False and off["sink"] is False


# ----------------------------------------------------------------------
# Store round-trip
# ----------------------------------------------------------------------
def test_trial_dict_round_trip_preserves_dataplane():
    topo = skewed_topology(20, seed=1)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    obs = ObsSession(dataplane=True)
    trial = run_experiment(topo, spec, seed=1, obs=obs)
    data = json.loads(json.dumps(trial_to_dict(trial)))  # via real JSON
    rebuilt = trial_from_dict(data)
    assert rebuilt == trial
    assert rebuilt.dataplane == trial.dataplane
    # Legacy records (no dataplane key) load with the default.
    del data["dataplane"]
    legacy = trial_from_dict(data)
    assert legacy == trial
    assert legacy.dataplane is None


# ----------------------------------------------------------------------
# JSONL sink
# ----------------------------------------------------------------------
def test_jsonl_sink_writes_trial_delimited_records(tmp_path):
    path = tmp_path / "dp.jsonl"
    topo = skewed_topology(20, seed=1)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    with JsonlSink(path) as sink:
        assert not ObsSession(sink=sink).dataplane_enabled  # turns nothing on
        obs = ObsSession(dataplane=True, sink=sink)
        result = run_experiment(topo, spec, seed=1, obs=obs)
    records = load_trace(path)
    assert records[0] == TraceRecord(
        result.failure_time,
        "dataplane_trial",
        None,
        (1, result.failure_time + result.convergence_delay),
    )
    assert {r.category for r in records[1:]} == {"dataplane"}
    assert sink.records_written == len(records)
