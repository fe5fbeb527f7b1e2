"""Unit tests for MRAI policies and controllers."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI, StaticController
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import (
    DynamicController,
    DynamicMRAI,
    MessageCountController,
    UtilizationController,
)


# ---------------------------------------------------------------------------
# Static / constant
# ---------------------------------------------------------------------------
def test_static_controller_value():
    assert StaticController(1.5).value() == 1.5


def test_static_controller_rejects_negative():
    with pytest.raises(ValueError):
        StaticController(-1.0)


def test_constant_policy_same_for_all_nodes():
    policy = ConstantMRAI(2.25)
    a = policy.controller_for(0, degree=1)
    b = policy.controller_for(5, degree=14)
    assert a.value() == b.value() == 2.25
    assert "2.25" in policy.name


def test_constant_policy_rejects_negative():
    with pytest.raises(ValueError):
        ConstantMRAI(-0.5)


# ---------------------------------------------------------------------------
# Degree-dependent
# ---------------------------------------------------------------------------
def test_degree_dependent_assignment():
    policy = DegreeDependentMRAI(0.5, 2.25, degree_threshold=4)
    assert policy.controller_for(0, degree=2).value() == 0.5
    assert policy.controller_for(1, degree=3).value() == 0.5
    assert policy.controller_for(2, degree=4).value() == 2.25
    assert policy.controller_for(3, degree=8).value() == 2.25


def test_degree_dependent_reversed():
    policy = DegreeDependentMRAI(2.25, 0.5)
    assert policy.controller_for(0, degree=1).value() == 2.25
    assert policy.controller_for(0, degree=8).value() == 0.5


def test_degree_dependent_validation():
    with pytest.raises(ValueError):
        DegreeDependentMRAI(-1.0, 2.0)
    with pytest.raises(ValueError):
        DegreeDependentMRAI(1.0, 2.0, degree_threshold=0)


# ---------------------------------------------------------------------------
# Dynamic (queue monitor)
# ---------------------------------------------------------------------------
def make_dynamic(**kwargs):
    defaults = dict(
        levels=(0.5, 1.25, 2.25), up_th=0.65, down_th=0.05, mean_service=0.0155
    )
    defaults.update(kwargs)
    return DynamicController(**defaults)


def test_dynamic_starts_at_lowest_level():
    ctl = make_dynamic()
    assert ctl.value() == 0.5


def test_dynamic_steps_up_on_overload():
    ctl = make_dynamic()
    # 0.65 / 0.0155 = ~42 queued messages push unfinished work above upTh.
    ctl.on_queue_sample(50, now=1.0)
    assert ctl.value() == 1.25
    ctl.on_queue_sample(50, now=1.1)
    assert ctl.value() == 2.25
    # Saturates at the top level.
    ctl.on_queue_sample(500, now=1.2)
    assert ctl.value() == 2.25
    assert ctl.transitions_up == 2


def test_dynamic_steps_down_when_idle():
    ctl = make_dynamic()
    ctl.on_queue_sample(50, now=1.0)
    ctl.on_queue_sample(50, now=1.1)
    assert ctl.value() == 2.25
    ctl.on_queue_sample(0, now=2.0)  # work 0 < downTh
    assert ctl.value() == 1.25
    ctl.on_queue_sample(0, now=2.1)
    assert ctl.value() == 0.5
    ctl.on_queue_sample(0, now=2.2)
    assert ctl.value() == 0.5
    assert ctl.transitions_down == 2


def test_dynamic_hysteresis_band_holds_level():
    ctl = make_dynamic()
    ctl.on_queue_sample(50, now=1.0)
    assert ctl.value() == 1.25
    # Work between downTh and upTh: no change either way.
    ctl.on_queue_sample(10, now=1.5)  # 10 * 0.0155 = 0.155
    assert ctl.value() == 1.25


def test_dynamic_validation():
    with pytest.raises(ValueError):
        make_dynamic(levels=())
    with pytest.raises(ValueError):
        make_dynamic(levels=(2.0, 1.0))
    with pytest.raises(ValueError):
        make_dynamic(up_th=0.1, down_th=0.5)
    with pytest.raises(ValueError):
        make_dynamic(mean_service=0.0)


# ---------------------------------------------------------------------------
# Dynamic (utilization monitor)
# ---------------------------------------------------------------------------
def test_utilization_controller_steps_with_busy_fraction():
    ctl = UtilizationController((0.5, 2.25), up_th=0.8, down_th=0.2, window=1.0)
    ctl.on_busy_interval(9.0, 10.0)  # fully busy
    ctl.on_queue_sample(5, now=10.0)
    assert ctl.value() == 2.25
    # Much later: window empty -> steps back down.
    ctl.on_queue_sample(0, now=20.0)
    assert ctl.value() == 0.5


def test_utilization_controller_validation():
    with pytest.raises(ValueError):
        UtilizationController((0.5,), up_th=1.5)
    with pytest.raises(ValueError):
        UtilizationController((2.0, 1.0))


# ---------------------------------------------------------------------------
# Dynamic (message-count monitor)
# ---------------------------------------------------------------------------
def test_msgcount_controller_steps_with_arrival_rate():
    ctl = MessageCountController((0.5, 2.25), up_th=10, down_th=2, window=1.0)
    for i in range(12):
        ctl.on_update_received(now=1.0 + i * 0.01)
    ctl.on_queue_sample(12, now=1.2)
    assert ctl.value() == 2.25
    ctl.on_queue_sample(0, now=10.0)  # arrivals aged out
    assert ctl.value() == 0.5


def test_msgcount_controller_validation():
    with pytest.raises(ValueError):
        MessageCountController((), up_th=5, down_th=1)
    with pytest.raises(ValueError):
        MessageCountController((0.5,), up_th=1, down_th=5)


# ---------------------------------------------------------------------------
# DynamicMRAI policy
# ---------------------------------------------------------------------------
def test_dynamic_policy_builds_requested_monitor():
    assert isinstance(
        DynamicMRAI().controller_for(0, 3), DynamicController
    )
    assert isinstance(
        DynamicMRAI(monitor="utilization", up_th=0.9, down_th=0.1)
        .controller_for(0, 3),
        UtilizationController,
    )
    assert isinstance(
        DynamicMRAI(monitor="msgcount", up_th=40, down_th=5)
        .controller_for(0, 3),
        MessageCountController,
    )


def test_dynamic_policy_rejects_unknown_monitor():
    with pytest.raises(ValueError):
        DynamicMRAI(monitor="bogus")


def test_dynamic_policy_high_degree_only():
    policy = DynamicMRAI(high_degree_only_threshold=4)
    low = policy.controller_for(0, degree=2)
    high = policy.controller_for(1, degree=8)
    assert isinstance(low, StaticController)
    assert low.value() == 0.5  # pinned at the lowest ladder level
    assert isinstance(high, DynamicController)


def test_controllers_are_per_node():
    policy = DynamicMRAI()
    a = policy.controller_for(0, 8)
    b = policy.controller_for(1, 8)
    assert a is not b
    a.on_queue_sample(100, 1.0)
    assert a.value() != b.value()


# ---------------------------------------------------------------------------
# Config integration
# ---------------------------------------------------------------------------
def test_bgp_config_defaults_match_paper():
    config = BGPConfig()
    assert config.processing_delay_range == (0.001, 0.030)
    assert config.mean_processing_delay == pytest.approx(0.0155)
    assert not config.withdrawal_rate_limiting
    assert config.queue_discipline == "fifo"


def test_bgp_config_validation():
    with pytest.raises(ValueError):
        BGPConfig(processing_delay_range=(-1.0, 2.0))
    with pytest.raises(ValueError):
        BGPConfig(processing_delay_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        BGPConfig(queue_discipline="bogus")
    with pytest.raises(ValueError):
        BGPConfig(tcp_batch_size=0)


def test_bgp_config_zero_processing():
    config = BGPConfig(processing_delay_range=(0.0, 0.0))
    assert config.mean_processing_delay == 0.0
