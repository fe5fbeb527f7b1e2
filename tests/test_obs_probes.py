"""Tests for the per-node time-series probes."""

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.obs.probes import NetworkProbe, percentile
from repro.obs.session import ObsSession
from repro.topology.skewed import skewed_topology


def small_topo(seed=3):
    return skewed_topology(30, seed=seed)


def observed_run(spec, seed=1, **session_kwargs):
    session_kwargs.setdefault("sample_interval", 0.25)
    obs = ObsSession(**session_kwargs)
    result = run_experiment(small_topo(), spec, seed=seed, obs=obs)
    return obs, result


# ----------------------------------------------------------------------
# percentile helper
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 2.0)


# ----------------------------------------------------------------------
# Probe construction / arming
# ----------------------------------------------------------------------
def test_probe_rejects_bad_interval():
    net = BGPNetwork(small_topo())
    with pytest.raises(ValueError):
        NetworkProbe(net, interval=0.0)


def test_session_rejects_bad_interval():
    with pytest.raises(ValueError):
        ObsSession(sample_interval=-1.0)


def test_probe_detaches_at_quiescence():
    obs, result = observed_run(
        ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    )
    # The run finished (twice quiescent: warm-up then convergence), so the
    # sampler must have detached itself rather than keep the sim alive —
    # a session holds samples, never the sampler, so that is its evidence.
    assert not result.truncated
    assert len(obs.probe.aggregates) > 2
    # The sampler's own ticks stop at the first quiet one.
    net = BGPNetwork(small_topo())
    sampler = NetworkProbe(net, interval=0.25)
    sampler.start()
    net.start()
    net.run_until_quiet(max_time=3600)
    assert net.is_quiescent()


def test_session_does_not_pin_finished_networks():
    # One sampled session across many trials keeps every trial's samples
    # but must not keep every trial's RIBs alive through its probes.
    import gc

    def reachable_networks():
        gc.collect()
        return sum(isinstance(o, BGPNetwork) for o in gc.get_objects())

    before = reachable_networks()
    obs = ObsSession(sample_interval=0.25)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    for seed in range(4):
        run_experiment(small_topo(), spec, seed=seed, obs=obs)
    assert reachable_networks() - before <= 1
    assert len(obs.probes) == 4
    assert all(len(probe.aggregates) > 2 for probe in obs.probes)


def test_probe_samples_cover_both_phases():
    obs, result = observed_run(
        ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    )
    times = obs.probe.aggregate_series("time")
    # Samples exist both before and after failure injection (the probe is
    # re-armed by TrialObserver.on_failure between the phases).
    assert any(t <= result.failure_time for t in times)
    assert any(t > result.failure_time for t in times)
    assert times == sorted(times)


def test_probe_aggregate_consistency():
    obs, _ = observed_run(
        ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    )
    for agg in obs.probe.aggregates:
        assert 0 <= agg.busy_nodes <= agg.nodes
        assert agg.queue_p50 <= agg.queue_p95 <= agg.queue_max
        assert agg.work_p50 <= agg.work_p95 <= agg.work_max
        assert sum(agg.mrai_levels.values()) == agg.nodes


def test_probe_tracks_dynamic_mrai_levels():
    obs, _ = observed_run(
        ExperimentSpec(mrai=DynamicMRAI(), failure_fraction=0.2), seed=2
    )
    levels = set()
    for agg in obs.probe.aggregates:
        levels.update(agg.mrai_levels)
    # A 20% failure pushes at least some routers off the base ladder level.
    assert 0 in levels
    assert len(levels) >= 2


def test_node_series_extraction():
    obs, _ = observed_run(
        ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    )
    probe = obs.probe
    node = probe.node_samples[0].node
    series = probe.node_series(node, "queue_depth")
    assert len(series) == sum(1 for s in probe.node_samples if s.node == node)
    assert probe.peak("work_max") == max(probe.aggregate_series("work_max"))


# ----------------------------------------------------------------------
# Determinism and passivity
# ----------------------------------------------------------------------
def test_probe_sampling_deterministic():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    obs_a, _ = observed_run(spec, seed=5)
    obs_b, _ = observed_run(spec, seed=5)
    assert obs_a.probe.aggregates == obs_b.probe.aggregates
    assert obs_a.probe.node_samples == obs_b.probe.node_samples


def test_observation_is_passive():
    """An instrumented run takes the identical protocol trajectory.

    Probe ticks do add engine events (so ``events_executed`` grows and the
    absolute failure-injection timestamp lands on the later quiescence
    clock), but every protocol-level measurement is bit-identical.
    """
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    bare = run_experiment(small_topo(), spec, seed=5)
    _, observed = observed_run(spec, seed=5, profile=True)
    for attr in (
        "convergence_delay",
        "messages_sent",
        "withdrawals_sent",
        "updates_processed",
        "stale_dropped",
        "route_changes",
        "failure_size",
        "warmup_time",
        "warmup_messages",
        "truncated",
    ):
        assert getattr(bare, attr) == getattr(observed, attr), attr
    assert observed.events_executed > bare.events_executed  # probe ticks
