"""Tests for the experiment driver."""

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    TrialResult,
    build_scenario,
    run_experiment,
    run_trials,
)
from repro.failures.scenarios import single_node_failure
from repro.topology.skewed import skewed_topology
from tests.conftest import ring_topology


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
    scenario = single_node_failure(topo, 2)
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


@pytest.mark.parametrize("queue_discipline", ["fifo", "dest_batch"])
def test_one_level_dynamic_mrai_is_the_constant_scheme(queue_discipline):
    # A free oracle: a ladder with one rung can never step, so the whole
    # trajectory — delay, message counts, events — must be the constant
    # scheme's, not merely close to it.
    topo = small_topo()
    results = [
        run_experiment(
            topo,
            ExperimentSpec(
                mrai=mrai,
                failure_fraction=0.1,
                queue_discipline=queue_discipline,
            ),
            seed=5,
        )
        for mrai in (DynamicMRAI(levels=(0.5,)), ConstantMRAI(0.5))
    ]
    assert results[0] == results[1]  # every measured field, events included
    assert results[0].events_executed > 0


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


def test_run_trials_aggregates():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    result = run_trials(small_topo, spec, seeds=(1, 2, 3))
    assert result.n == 3
    assert result.mean_delay > 0
    assert result.mean_messages > 0
    assert result.delay.n == 3
    lo, hi = result.delay.confidence_interval95()
    assert lo <= result.mean_delay <= hi
    assert "3 trials" in str(result)


def test_run_trials_fixed_topology():
    topo = small_topo()
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    result = run_trials(lambda seed: topo, spec, seeds=(1, 2))
    assert result.n == 2
    # Same topology, different protocol seeds: delays differ.
    delays = [t.convergence_delay for t in result.trials]
    assert delays[0] != delays[1]


def test_trial_result_str():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    result = run_experiment(small_topo(), spec, seed=1)
    text = str(result)
    assert "delay=" in text
    assert "msgs=" in text


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
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    result = run_trials(small_topo, spec, seeds=(1, 2))
    assert result.warmup_wall.n == 2
    assert result.convergence_wall.n == 2
    assert result.total_wall == pytest.approx(
        sum(t.warmup_wall + t.convergence_wall for t in result.trials)
    )


def test_experiment_result_merge():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    a = run_trials(small_topo, spec, seeds=(1, 2))
    b = run_trials(small_topo, spec, seeds=(3,))
    merged = a.merge(b)
    assert merged.n == 3
    assert [t.seed for t in merged.trials] == [1, 2, 3]
    # Merged accumulators match a re-streamed computation exactly.
    delays = [t.convergence_delay for t in merged.trials]
    assert merged.mean_delay == pytest.approx(sum(delays) / 3)
    assert merged.delay.minimum == min(delays)
    assert merged.delay.maximum == max(delays)
    # Operands are untouched.
    assert a.n == 2 and b.n == 1


def test_experiment_result_merge_rejects_spec_mismatch():
    spec_a = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    spec_b = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.2)
    a = ExperimentResult(spec=spec_a)
    b = ExperimentResult(spec=spec_b)
    with pytest.raises(ValueError):
        a.merge(b)


def test_run_trials_progress_callback():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    ticks = []
    run_trials(small_topo, spec, seeds=(1, 2), progress=ticks.append)
    assert [(p.done, p.total) for p in ticks] == [(1, 2), (2, 2)]
    assert ticks[0].eta >= 0.0
    assert ticks[-1].fraction == 1.0
    assert "[2/2]" in str(ticks[-1])
