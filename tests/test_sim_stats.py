"""Unit tests for online statistics."""

import math

import pytest

from repro.sim.stats import OnlineStats, SlidingWindowUtilization


def test_online_stats_empty():
    stats = OnlineStats()
    assert stats.n == 0
    assert stats.mean == 0.0
    assert stats.variance == 0.0
    assert stats.minimum == 0.0
    assert stats.maximum == 0.0


def test_online_stats_single_value():
    stats = OnlineStats()
    stats.add(5.0)
    assert stats.mean == 5.0
    assert stats.variance == 0.0
    assert stats.minimum == 5.0
    assert stats.maximum == 5.0


def test_online_stats_matches_closed_form():
    data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    stats = OnlineStats()
    stats.extend(data)
    mean = sum(data) / len(data)
    var = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
    assert stats.mean == pytest.approx(mean)
    assert stats.variance == pytest.approx(var)
    assert stats.stdev == pytest.approx(math.sqrt(var))
    assert stats.minimum == 2.0
    assert stats.maximum == 9.0


def test_utilization_empty_is_zero():
    util = SlidingWindowUtilization(window=1.0)
    assert util.utilization(10.0) == 0.0


def test_utilization_fully_busy():
    util = SlidingWindowUtilization(window=1.0)
    util.add_busy(9.0, 10.0)
    assert util.utilization(10.0) == pytest.approx(1.0)


def test_utilization_half_busy():
    util = SlidingWindowUtilization(window=2.0)
    util.add_busy(9.0, 10.0)
    assert util.utilization(10.0) == pytest.approx(0.5)


def test_utilization_evicts_old_intervals():
    util = SlidingWindowUtilization(window=1.0)
    util.add_busy(0.0, 0.5)
    assert util.utilization(10.0) == 0.0


def test_utilization_clips_interval_to_window():
    util = SlidingWindowUtilization(window=1.0)
    util.add_busy(8.0, 9.5)  # Only [9.0, 9.5] is inside the window at t=10.
    assert util.utilization(10.0) == pytest.approx(0.5)


def test_utilization_rejects_bad_interval():
    util = SlidingWindowUtilization(window=1.0)
    with pytest.raises(ValueError):
        util.add_busy(5.0, 4.0)


def test_utilization_rejects_bad_window():
    with pytest.raises(ValueError):
        SlidingWindowUtilization(window=0.0)
