"""Tests for the experiment driver."""

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.adaptive import AdaptiveExtentMRAI
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    build_scenario,
    run_experiment,
)
from repro.failures.scenarios import geographic_failure
from repro.topology.skewed import skewed_topology
from tests.conftest import ring_topology, run_cell


def small_topo(seed=3):
    return skewed_topology(30, seed=seed)


def test_run_experiment_produces_sane_measurements():
    spec = ExperimentSpec(
        mrai=ConstantMRAI(0.5), failure_fraction=0.1, validate=True
    )
    result = run_experiment(small_topo(), spec, seed=1)
    assert result.convergence_delay > 0
    assert result.messages_sent > 0
    assert result.failure_size == 3
    assert result.warmup_time > 0
    assert result.warmup_messages > 0
    assert not result.truncated
    assert result.withdrawals_sent > 0
    assert result.updates_processed <= result.messages_sent


def test_run_experiment_deterministic():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    a = run_experiment(small_topo(), spec, seed=5)
    b = run_experiment(small_topo(), spec, seed=5)
    assert a == b


def test_run_experiment_custom_scenario():
    topo = ring_topology(6)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5))
    scenario = geographic_failure(topo, 1 / 6)  # one router of six
    result = run_experiment(topo, spec, seed=1, scenario=scenario)
    assert result.failure_size == 1


def test_run_experiment_batching_drops_stale_under_load():
    spec = ExperimentSpec(
        mrai=ConstantMRAI(0.25),
        queue_discipline="dest_batch",
        failure_fraction=0.2,
    )
    result = run_experiment(small_topo(), spec, seed=1)
    assert result.stale_dropped > 0


def test_run_experiment_fifo_never_drops_stale():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.25), failure_fraction=0.2)
    result = run_experiment(small_topo(), spec, seed=1)
    assert result.stale_dropped == 0


def _trial(**fields):
    def run():
        spec = ExperimentSpec(failure_fraction=0.1, **fields)
        result = run_experiment(small_topo(), spec, seed=5)
        assert result.events_executed > 0
        return result

    return run


def _single_origin(per_destination_mrai):
    """Only AS 0 originates; warm up, fail it, and read what the network
    did (``run_experiment`` always originates everywhere)."""

    def run():
        spec = ExperimentSpec(per_destination_mrai=per_destination_mrai)
        net = BGPNetwork(small_topo(), spec.to_bgp_config(), seed=5)
        net.speakers[0].originate(0)
        net.run_until_quiet()
        net.fail_nodes([0])
        net.run_until_quiet()
        assert net.counters["withdrawals_sent"] > 0
        return net.counters.snapshot(), net.last_activity, net.sim.events_executed

    return run


#: Schemes that can never leave 0.5 s: a ladder with one rung cannot step,
#: a two-class scheme with equal values or a threshold above every degree
#: has one class, a one-row calibration table has one answer.
_DEGENERATE_MRAI = {
    "one_level_dynamic": DynamicMRAI(levels=(0.5,)),
    "degree_equal_values": DegreeDependentMRAI(0.5, 0.5),
    "degree_threshold_above_every_degree": DegreeDependentMRAI(
        0.5, 2.25, degree_threshold=1000
    ),
    "one_row_adaptive": AdaptiveExtentMRAI(30, calibration=((0.0, 0.5),)),
}


@pytest.mark.parametrize(
    "degenerate, plain",
    [
        pytest.param(
            _trial(mrai=mrai, queue_discipline=queue),
            _trial(mrai=ConstantMRAI(0.5), queue_discipline=queue),
            id=f"{name}-{queue}",
        )
        for name, mrai in _DEGENERATE_MRAI.items()
        for queue in ("fifo", "dest_batch")
    ]
    + [
        pytest.param(
            _trial(queue_discipline="tcp_batch", tcp_batch_size=1),
            _trial(queue_discipline="fifo"),
            id="tcp_batch_of_one-fifo",
        ),
        pytest.param(
            _single_origin(per_destination_mrai=True),
            _single_origin(per_destination_mrai=False),
            id="per_destination_mrai-single_origin",
        ),
    ],
)
def test_degenerate_configuration_is_the_plain_scheme(degenerate, plain):
    # Free oracles: each degenerate setting must give the plain scheme's
    # whole trajectory — delay, message counts, events — not merely one
    # close to it.
    assert degenerate() == plain()  # every measured field, events included


def test_warmup_sends_withdrawals():
    # Why ``dest_batch_wf`` is *not* ``dest_batch`` over a warm-up
    # (docs/MODEL.md §8): sender-side loop suppression turns "my best now
    # runs through you" into an explicit withdrawal, and the
    # withdrawal-first queue serves those ahead of arrival order.
    net = BGPNetwork(small_topo(), ExperimentSpec().to_bgp_config(), seed=5)
    net.start()
    net.run_until_quiet()
    assert net.counters["withdrawals_sent"] > 0


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(failure_fraction=0.0)
    with pytest.raises(ValueError):
        ExperimentSpec(failure_fraction=0.9)
    with pytest.raises(ValueError):
        ExperimentSpec(failure_kind="bogus")


def test_spec_with_replaces_fields():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.05)
    other = spec.with_(failure_fraction=0.2)
    assert other.failure_fraction == 0.2
    assert other.mrai is spec.mrai
    assert spec.failure_fraction == 0.05  # original untouched


def test_spec_to_bgp_config_round_trip():
    spec = ExperimentSpec(
        mrai=DynamicMRAI(),
        queue_discipline="dest_batch",
        per_destination_mrai=True,
        withdrawal_rate_limiting=True,
    )
    config = spec.to_bgp_config()
    assert config.queue_discipline == "dest_batch"
    assert config.per_destination_mrai
    assert config.withdrawal_rate_limiting
    assert config.mrai_policy is spec.mrai


def test_build_scenario_geographic_vs_random():
    topo = small_topo()
    geo_spec = ExperimentSpec(failure_fraction=0.1)
    geo = build_scenario(topo, geo_spec, seed=1)
    assert geo.kind == "geographic"
    rand_spec = ExperimentSpec(failure_fraction=0.1, failure_kind="random")
    rand = build_scenario(topo, rand_spec, seed=1)
    assert rand.kind == "random"
    assert rand.size == geo.size


def test_one_cell_campaign_aggregates():
    result = run_cell({"mrai": 0.5}, (1, 2, 3), nodes=30)
    assert result.n == 3
    assert result.mean_delay > 0
    assert result.mean_messages > 0
    assert result.delay.n == 3
    assert "3 trials" in str(result)


def test_one_cell_campaign_fixed_topology():
    # The block pinned to small_topo()'s seed: one topology for all trials.
    result = run_cell({"mrai": 0.5}, (1, 2), nodes=30, pin=3)
    assert result.n == 2
    # Same topology, different protocol seeds: delays differ.
    delays = [t.convergence_delay for t in result.trials]
    assert delays[0] != delays[1]


def test_experiment_result_empty_stats():
    result = ExperimentResult(spec=ExperimentSpec())
    assert result.n == 0
    assert result.mean_delay == 0.0


def test_trial_result_records_wall_clock_phases():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    result = run_experiment(small_topo(), spec, seed=1)
    assert result.warmup_wall > 0.0
    assert result.convergence_wall > 0.0


def test_experiment_result_wall_clock_aggregates():
    # A campaign's trials keep their phase wall clocks through the fold.
    result = run_cell({"mrai": 0.5}, (1, 2), nodes=30)
    assert len(result.trials) == 2
    for trial in result.trials:
        assert trial.warmup_wall > 0.0
        assert trial.convergence_wall > 0.0


def test_one_cell_campaign_progress_callback():
    seen = []
    run_cell({"mrai": 0.5}, (1, 2), nodes=30, on_outcome=seen.append)
    assert [(o.index, o.cached, o.error) for o in seen] == [
        (0, False, None),
        (1, False, None),
    ]
    assert [o.trial.seed for o in seen] == [1, 2]
    assert all(o.trial.convergence_wall > 0.0 for o in seen)
