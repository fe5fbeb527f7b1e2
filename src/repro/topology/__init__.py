"""Topology generation (the BRITE substitute).

The paper generates AS-level topologies with a modified BRITE: mostly flat
(one router per AS) graphs with *skewed* degree distributions ("70-30",
"50-50", "85-15"), plus verification topologies using Waxman,
Barabasi-Albert, GLP, an Internet-derived degree distribution, and
multi-router-per-AS hierarchies.  All of those are implemented here.

Every generator returns a :class:`~repro.topology.graph.Topology`: routers
with grid coordinates and AS numbers, undirected links with one-way delays,
and helpers for degrees, connectivity and distance ordering.
"""

from repro.topology.barabasi_albert import barabasi_albert_topology
from repro.topology.degree import (
    DegreeSequenceError,
    InternetDegreeDistribution,
    SkewedDegreeSpec,
    havel_hakimi_graph,
    is_graphical,
    make_graphical,
    rewire_for_randomness,
)
from repro.topology.glp import glp_topology
from repro.topology.graph import GRID_SIZE, Link, Router, Topology, TopologyError
from repro.topology.internet import internet_like_topology
from repro.topology.multirouter import MultiRouterSpec, multi_router_topology
from repro.topology.placement import place_on_grid, place_within_region
from repro.topology.serialize import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.skewed import skewed_topology
from repro.topology.waxman import waxman_topology

__all__ = [
    "DegreeSequenceError",
    "GRID_SIZE",
    "InternetDegreeDistribution",
    "Link",
    "MultiRouterSpec",
    "Router",
    "SkewedDegreeSpec",
    "Topology",
    "TopologyError",
    "barabasi_albert_topology",
    "glp_topology",
    "load_topology",
    "save_topology",
    "topology_from_dict",
    "topology_to_dict",
    "havel_hakimi_graph",
    "internet_like_topology",
    "is_graphical",
    "make_graphical",
    "multi_router_topology",
    "place_on_grid",
    "place_within_region",
    "rewire_for_randomness",
    "skewed_topology",
    "waxman_topology",
]
