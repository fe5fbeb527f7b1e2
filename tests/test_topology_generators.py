"""Unit tests for the flat-topology generators (skewed and internet-like)."""

import pytest

from repro.topology.degree import SkewedDegreeSpec
from repro.topology.graph import GRID_SIZE
from repro.topology.internet import internet_like_topology
from repro.topology.skewed import skewed_topology

GENERATORS = [
    lambda seed: skewed_topology(40, seed=seed),
    lambda seed: internet_like_topology(40, seed=seed),
]


@pytest.mark.parametrize("generator", GENERATORS)
def test_generators_produce_valid_connected_graphs(generator):
    topo = generator(3)
    topo.validate()
    assert topo.is_connected()
    assert topo.num_routers == 40
    assert topo.is_flat()


@pytest.mark.parametrize("generator", GENERATORS)
def test_generators_are_deterministic_per_seed(generator):
    a = generator(5)
    b = generator(5)
    assert sorted(l.endpoints() for l in a.links) == sorted(
        l.endpoints() for l in b.links
    )
    assert {n: (r.x, r.y) for n, r in a.routers.items()} == {
        n: (r.x, r.y) for n, r in b.routers.items()
    }


@pytest.mark.parametrize("generator", GENERATORS)
def test_generators_vary_with_seed(generator):
    a = generator(1)
    b = generator(2)
    assert sorted(l.endpoints() for l in a.links) != sorted(
        l.endpoints() for l in b.links
    )


@pytest.mark.parametrize("generator", GENERATORS)
def test_positions_inside_grid(generator):
    topo = generator(4)
    for router in topo.routers.values():
        assert 0.0 <= router.x <= GRID_SIZE
        assert 0.0 <= router.y <= GRID_SIZE


def test_skewed_70_30_degree_shape():
    topo = skewed_topology(100, SkewedDegreeSpec.paper_70_30(), seed=9)
    hist = topo.degree_histogram()
    # ~30% of nodes should sit at (or within one of) the high degree 8.
    high = sum(count for deg, count in hist.items() if deg >= 7)
    assert 20 <= high <= 40
    assert 3.0 <= topo.average_degree() <= 4.6


def test_skewed_average_degree_matches_spec():
    # Half the nodes at degree 1-3 (mean 2), half at 13-14 (mean 13.5).
    topo = skewed_topology(80, SkewedDegreeSpec.paper_50_50_dense(), seed=2)
    assert topo.average_degree() == pytest.approx(7.75, rel=0.15)


def test_skewed_custom_link_delay():
    topo = skewed_topology(20, seed=1, link_delay=0.01)
    assert all(link.delay == 0.01 for link in topo.links)


def test_internet_like_max_degree_capped():
    topo = internet_like_topology(120, seed=7)
    assert max(topo.degree_sequence()) <= 40


def test_custom_name():
    topo = skewed_topology(20, seed=1, name="my-topo")
    assert topo.name == "my-topo"
