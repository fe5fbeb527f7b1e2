"""Tests for failure scenario construction."""

import random

import pytest

from repro.failures.scenarios import (
    FailureScenario,
    geographic_failure,
    random_failure,
)
from repro.topology.skewed import skewed_topology
from tests.conftest import flat_topology_from_edges


def grid_line_topology():
    positions = {i: (float(i * 100), 500.0) for i in range(10)}
    return flat_topology_from_edges(
        [(i, i + 1) for i in range(9)], positions=positions
    )


def test_geographic_failure_takes_closest_nodes():
    topo = grid_line_topology()
    scenario = geographic_failure(topo, 0.3, center=(0.0, 500.0))
    assert scenario.nodes == {0, 1, 2}
    assert scenario.kind == "geographic"
    assert scenario.size == 3


def test_geographic_failure_default_center_is_grid_middle():
    topo = grid_line_topology()
    scenario = geographic_failure(topo, 0.1)
    # Node 5 at x=500 is the closest to (500, 500).
    assert scenario.nodes == {5}
    assert scenario.center == (500.0, 500.0)


def test_geographic_failure_is_contiguous_on_real_topology():
    topo = skewed_topology(60, seed=4)
    scenario = geographic_failure(topo, 0.2)
    assert scenario.size == 12
    # Contiguity: the failed set is exactly the k nearest to the center.
    ordered = topo.nodes_by_distance(500.0, 500.0)
    assert set(ordered[:12]) == scenario.nodes


def test_geographic_failure_at_least_one_node():
    topo = grid_line_topology()
    scenario = geographic_failure(topo, 0.001)
    assert scenario.size == 1


def test_geographic_failure_fraction_validation():
    topo = grid_line_topology()
    with pytest.raises(ValueError):
        geographic_failure(topo, 0.0)
    with pytest.raises(ValueError):
        geographic_failure(topo, 1.5)


def test_random_failure_size_and_membership():
    topo = grid_line_topology()
    scenario = random_failure(topo, 0.4, random.Random(3))
    assert scenario.size == 4
    assert scenario.nodes <= set(topo.node_ids())
    assert scenario.kind == "random"


def test_random_failure_deterministic_per_rng():
    topo = grid_line_topology()
    a = random_failure(topo, 0.4, random.Random(3))
    b = random_failure(topo, 0.4, random.Random(3))
    assert a.nodes == b.nodes


def test_random_failure_varies_with_rng():
    topo = skewed_topology(60, seed=4)
    a = random_failure(topo, 0.2, random.Random(1))
    b = random_failure(topo, 0.2, random.Random(2))
    assert a.nodes != b.nodes


def test_scenario_requires_nodes():
    with pytest.raises(ValueError):
        FailureScenario(nodes=frozenset(), kind="x")


# ----------------------------------------------------------------------
# Guards: empty / too-small topologies fail loudly, not cryptically
# ----------------------------------------------------------------------
def test_empty_topology_rejected_everywhere():
    from repro.topology.graph import Topology

    empty = Topology()
    with pytest.raises(ValueError, match="empty topology"):
        geographic_failure(empty, 0.1)
    with pytest.raises(ValueError, match="empty topology"):
        random_failure(empty, 0.1, random.Random(1))


def test_random_failure_on_tiny_topology_still_works():
    # A fraction that rounds below one node must fail one node, not zero
    # (and never more nodes than exist).
    from repro.topology.graph import Router, Topology

    tiny = Topology()
    tiny.add_router(Router(node_id=0, asn=0, x=0.0, y=0.0))
    scenario = random_failure(tiny, 0.01, random.Random(1))
    assert scenario.nodes == {0}
    geo = geographic_failure(tiny, 1.0, center=(0.0, 0.0))
    assert geo.nodes == {0}
