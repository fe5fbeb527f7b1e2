"""Tests for convergence timelines: the queue, invalid-route and MRAI-ladder
series a NetworkProbe samples through a failure (the view
``examples/convergence_timeline.py`` draws)."""

import importlib.util
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.dynamic_mrai import DynamicMRAI
from repro.obs.probes import AggregateSample, NetworkProbe
from repro.topology.skewed import skewed_topology
from tests.conftest import converged_network, ring_topology


def failed_center_timeline(net):
    """Probe ``net`` every 0.1 s through the failure of the 8 routers
    nearest the plane's center; the samples, once it is quiet again."""
    probe = NetworkProbe(net, interval=0.1)
    probe.start()
    probe.start()  # idempotent while armed: one baseline sample
    assert len(probe.samples) == 1
    net.fail_nodes(set(net.topology.nodes_by_distance(500, 500)[:8]))
    net.run_until_quiet()
    return probe.samples


def test_probe_records_samples_until_quiescence():
    net = BGPNetwork(
        ring_topology(6), BGPConfig(mrai_policy=ConstantMRAI(0.5)), seed=1
    )
    net.start()
    probe = NetworkProbe(net, interval=0.1)
    probe.start()
    net.run_until_quiet()
    times = probe.samples.aggregate_series("time")
    assert len(times) >= 2
    assert times == sorted(times)
    # The probe detached: no events left.
    assert net.sim.pending_events == 0


def test_probe_observes_queue_buildup_under_failure():
    net = converged_network(skewed_topology(40, seed=3), mrai=0.25)
    samples = failed_center_timeline(net)
    assert samples.peak("total_queue_depth") > 0
    assert samples.peak("queue_max") > 0
    # Eventually drains.
    assert samples.aggregates[-1].total_queue_depth == 0


def test_probe_tracks_invalid_routes_spike_and_decay():
    net = converged_network(skewed_topology(40, seed=3), mrai=0.25)
    invalid = failed_center_timeline(net).aggregate_series("invalid_routes")
    assert invalid[0] == 0           # the baseline precedes the failure
    assert max(invalid) > 0          # transient invalid routes existed
    assert invalid[-1] == 0          # and were all cleaned up


def test_probe_tracks_dynamic_mrai_levels():
    net = BGPNetwork(
        skewed_topology(40, seed=3),
        BGPConfig(mrai_policy=DynamicMRAI()),
        seed=1,
    )
    net.start()
    net.run_until_quiet()
    seen_levels = set()
    for sample in failed_center_timeline(net).aggregates:
        seen_levels.update(sample.mrai_levels)
    assert 0 in seen_levels
    assert len(seen_levels) >= 2  # someone climbed the ladder


def test_probe_stop_is_idempotent_and_start_once():
    net = converged_network(ring_topology(4))
    probe = NetworkProbe(net, interval=0.5)
    probe.start()
    probe.start()
    assert len(probe.samples) == 1  # armed once: one baseline sample
    # Stopping is automatic: the probe detaches once the network is quiet,
    # and running a quiet network again neither samples nor re-arms it.
    net.run_until_quiet()
    detached = len(probe.samples)
    assert net.sim.pending_events == 0
    net.run_until_quiet()
    assert len(probe.samples) == detached
    assert net.sim.pending_events == 0
    # start() after the detach re-arms it, once.
    probe.start()
    probe.start()
    assert len(probe.samples) == detached + 1
    assert net.sim.pending_events == 1


def test_probe_validation():
    net = converged_network(ring_topology(4))
    for interval in (0.0, -0.5):
        with pytest.raises(ValueError):
            NetworkProbe(net, interval=interval)


def test_time_to_drain():
    net = converged_network(skewed_topology(40, seed=3), mrai=0.25)
    samples = failed_center_timeline(net)
    # From the first sample with a backlog to the next one without.
    backlog = [(a.time, a.total_queue_depth) for a in samples.aggregates]
    start = next(t for t, depth in backlog if depth > 0)
    drained = next(t for t, depth in backlog if t > start and depth == 0)
    assert drained - start > 0


def test_sample_is_frozen():
    sample = AggregateSample(0.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, {})
    with pytest.raises(AttributeError):
        sample.time = 1.0


def test_sparkline_rendering():
    examples = Path(__file__).resolve().parent.parent / "examples"
    path = examples / "convergence_timeline.py"
    spec = importlib.util.spec_from_file_location("example_timeline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sparkline = module.sparkline
    assert sparkline([]) == ""
    line = sparkline([0, 1, 2, 4, 8])
    assert len(line) == 5
    assert line[0] == " "
    assert line[-1] == "█"
    # Downsampling caps the width.
    assert len(sparkline(list(range(500)), width=50)) == 50
