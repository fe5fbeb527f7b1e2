"""Tests for the failure-extent-adaptive MRAI (the future-work scheme)."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.core.adaptive import (
    PAPER_CALIBRATION,
    AdaptiveExtentMRAI,
    FailureExtentController,
)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.topology.skewed import skewed_topology


def make_controller(**kwargs):
    defaults = dict(
        calibration=PAPER_CALIBRATION, window=5.0, total_destinations=100
    )
    defaults.update(kwargs)
    return FailureExtentController(**defaults)


def test_starts_at_lowest_level():
    ctl = make_controller()
    assert ctl.value() == 0.5


def test_extent_counts_distinct_destinations():
    # Three distinct of 100 destinations: 3%, not the 5% of five events.
    ctl = make_controller(calibration=((0.0, 0.5), (0.03, 1.0), (0.04, 2.0)))
    for dest in (1, 2, 3, 2, 1):
        ctl.on_destination_changed(dest, now=1.0)
    assert ctl.value() == 1.0


def test_value_steps_with_extent():
    ctl = make_controller()
    # 5 distinct destinations = 5% extent -> middle level (>= 4%).
    for dest in range(5):
        ctl.on_destination_changed(dest, now=1.0)
    assert ctl.value() == 1.25
    # 10 distinct = 10% -> top level (>= 8%).
    for dest in range(5, 10):
        ctl.on_destination_changed(dest, now=1.0)
    assert ctl.value() == 2.25


def test_extent_decays_with_window():
    ctl = make_controller(window=2.0)
    for dest in range(10):
        ctl.on_destination_changed(dest, now=1.0)
    assert ctl.value() == 2.25
    # The churn ages out: back to the base level.
    ctl.on_destination_changed(99, now=10.0)
    assert ctl.value() == 0.5


def test_same_destination_reappearing_keeps_single_count():
    # One destination is 1%; counted three times it would reach 2%.
    ctl = make_controller(
        window=10.0, calibration=((0.0, 0.5), (0.02, 1.0))
    )
    for t in (1.0, 2.0, 3.0):
        ctl.on_destination_changed(7, now=t)
    assert ctl.value() == 0.5


def test_controller_validation():
    with pytest.raises(ValueError):
        make_controller(calibration=())
    with pytest.raises(ValueError):
        make_controller(calibration=((0.05, 0.5),))  # must start at 0.0
    with pytest.raises(ValueError):
        make_controller(calibration=((0.0, 0.5), (0.5, 1.0), (0.2, 2.0)))
    with pytest.raises(ValueError):
        make_controller(window=0.0)
    with pytest.raises(ValueError):
        make_controller(total_destinations=0)


def test_policy_builds_per_node_controllers():
    policy = AdaptiveExtentMRAI(total_destinations=60)
    a = policy.controller_for(0, 3)
    b = policy.controller_for(1, 8)
    assert a is not b
    assert isinstance(a, FailureExtentController)
    assert "adaptive-extent" in policy.name


def test_adaptive_beats_constant_low_for_large_failure():
    """End to end: the adaptive scheme fixes the large-failure meltdown."""
    topo = skewed_topology(60, seed=3)
    constant = run_experiment(
        topo,
        ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.2),
        seed=1,
    )
    adaptive = run_experiment(
        topo,
        ExperimentSpec(
            mrai=AdaptiveExtentMRAI(total_destinations=60),
            failure_fraction=0.2,
            validate=True,
        ),
        seed=1,
    )
    assert adaptive.convergence_delay < constant.convergence_delay
    assert adaptive.messages_sent < constant.messages_sent


def test_adaptive_converges_for_small_failures():
    topo = skewed_topology(60, seed=3)
    result = run_experiment(
        topo,
        ExperimentSpec(
            mrai=AdaptiveExtentMRAI(total_destinations=60),
            failure_fraction=1.0 / 60.0,
            validate=True,
        ),
        seed=1,
    )
    assert not result.truncated
