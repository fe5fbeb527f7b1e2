"""Tests for the analytic parameter-selection heuristics."""

import pytest

from repro.core.theory import recommend_ladder, recommend_mrai
from repro.topology.degree import SkewedDegreeSpec
from repro.topology.skewed import skewed_topology


def topo120():
    return skewed_topology(120, SkewedDegreeSpec.paper_70_30(), seed=3)


def test_recommend_mrai_grows_with_failure_size():
    topo = topo120()
    values = [recommend_mrai(topo, f) for f in (0.01, 0.05, 0.10, 0.20)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_recommend_mrai_grows_with_high_degree():
    sparse = skewed_topology(120, SkewedDegreeSpec.paper_50_50(), seed=3)
    heavy = skewed_topology(120, SkewedDegreeSpec.paper_85_15(), seed=3)
    assert recommend_mrai(heavy, 0.05) > recommend_mrai(sparse, 0.05)


def test_recommend_mrai_within_factor_two_of_paper_optima():
    """Paper's 120-node 70-30 optima: ~0.5 s @1%, ~1.25 s @5%."""
    topo = topo120()
    assert recommend_mrai(topo, 0.01) == pytest.approx(0.5, rel=1.0)
    assert recommend_mrai(topo, 0.05) == pytest.approx(1.25, rel=1.0)


def test_recommend_mrai_validation():
    topo = topo120()
    with pytest.raises(ValueError):
        recommend_mrai(topo, 0.0)
    with pytest.raises(ValueError):
        recommend_mrai(topo, 0.05, mean_service=0.0)


def test_recommend_ladder_is_ascending_and_floored():
    topo = topo120()
    ladder = recommend_ladder(topo, floor=0.25)
    assert ladder == tuple(sorted(set(ladder)))
    assert ladder[0] >= 0.25
    assert len(ladder) >= 2


def test_recommend_ladder_feeds_dynamic_policy():
    from repro.core.dynamic_mrai import DynamicMRAI

    topo = topo120()
    policy = DynamicMRAI(levels=recommend_ladder(topo))
    controller = policy.controller_for(0, 8)
    assert controller.value() == policy.levels[0]


def test_recommend_ladder_validation():
    with pytest.raises(ValueError):
        recommend_ladder(topo120(), fractions=())

