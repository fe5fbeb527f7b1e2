"""Unit tests for the topology data model."""

import pytest

from repro.topology.graph import Link, Router, Topology, TopologyError
from tests.conftest import flat_topology_from_edges


def build_square():
    """0-1-2-3-0 cycle with a 0-2 chord."""
    return flat_topology_from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def test_add_router_and_link():
    topo = Topology()
    topo.add_router(Router(0, 0, 1.0, 1.0))
    topo.add_router(Router(1, 1, 2.0, 2.0))
    link = topo.connect(0, 1)
    assert topo.num_routers == 2
    assert topo.num_links == 1
    assert topo.has_link(0, 1)
    assert topo.has_link(1, 0)
    assert topo.links == [link]


def test_duplicate_router_rejected():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    with pytest.raises(TopologyError):
        topo.add_router(Router(0, 0, 1, 1))


def test_duplicate_link_rejected():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    topo.add_router(Router(1, 1, 1, 1))
    topo.connect(0, 1)
    with pytest.raises(TopologyError):
        topo.connect(1, 0)


def test_self_loop_rejected():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    with pytest.raises(TopologyError):
        topo.connect(0, 0)


def test_link_to_unknown_router_rejected():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    with pytest.raises(TopologyError):
        topo.connect(0, 99)


def test_non_positive_delay_rejected():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    topo.add_router(Router(1, 1, 1, 1))
    with pytest.raises(TopologyError):
        topo.connect(0, 1, delay=0.0)


def test_degrees_and_neighbors():
    topo = build_square()
    assert topo.degree(0) == 3
    assert topo.degree(1) == 2
    assert topo.neighbors(0) == [1, 2, 3]
    assert topo.degree_sequence() == [3, 3, 2, 2]
    assert topo.average_degree() == pytest.approx(2.5)
    assert topo.degree_histogram() == {2: 2, 3: 2}


def test_connected_components():
    topo = Topology()
    for i in range(4):
        topo.add_router(Router(i, i, 0, 0))
    topo.connect(0, 1)
    topo.connect(2, 3)
    comps = topo.connected_components()
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]
    assert not topo.is_connected()
    topo.connect(1, 2)
    assert topo.is_connected()


def test_connectivity_with_exclusions():
    topo = flat_topology_from_edges([(0, 1), (1, 2)])
    assert topo.is_connected()
    assert not topo.is_connected(exclude={1})
    # Excluding an endpoint leaves a single (trivially connected) node pair?
    assert topo.is_connected(exclude={0, 1})


def test_nodes_by_distance_is_deterministic():
    positions = {0: (5.0, 0.0), 1: (5.0, 0.0), 2: (50.0, 0.0)}
    topo = flat_topology_from_edges([(0, 1), (1, 2)], positions=positions)
    assert topo.nodes_by_distance(0, 0) == [0, 1, 2]


def test_as_structure_flat():
    topo = build_square()
    assert topo.is_flat()
    assert topo.as_numbers() == [0, 1, 2, 3]
    assert topo.as_members(2) == [2]
    assert topo.as_of(2) == 2
    assert topo.inter_as_degree(0) == 3


def test_validate_accepts_good_topology():
    build_square().validate()


def test_validate_rejects_disconnected():
    topo = Topology()
    for i in range(4):
        topo.add_router(Router(i, i, 0, 0))
    topo.connect(0, 1)
    topo.connect(2, 3)
    with pytest.raises(TopologyError):
        topo.validate()


def test_validate_rejects_isolated_router():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    topo.add_router(Router(1, 1, 1, 1))
    topo.add_router(Router(2, 2, 2, 2))
    topo.connect(0, 1)
    with pytest.raises(TopologyError):
        topo.validate()


def test_validate_rejects_intra_as_link_across_ases():
    topo = Topology()
    topo.add_router(Router(0, 0, 0, 0))
    topo.add_router(Router(1, 1, 1, 1))
    topo.add_link(Link(0, 1, 0.025, "intra_as"))
    with pytest.raises(TopologyError):
        topo.validate()


def test_centroid_and_summary():
    positions = {0: (0.0, 0.0), 1: (10.0, 10.0)}
    topo = flat_topology_from_edges([(0, 1)], positions=positions)
    text = topo.summary()
    assert "2 routers" in text
    assert "1 links" in text


def test_flat_topology_default_positions_are_distinct_diagonal():
    topo = flat_topology_from_edges([(0, 1), (1, 2)])
    xs = {r.x for r in topo.routers.values()}
    assert len(xs) == 3
