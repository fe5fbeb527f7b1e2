"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sqlite3
from contextlib import closing
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.policy import ASRelationships
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import Path, prepend
from repro.bgp.speaker import _NEVER_SENT, PeerState
from repro.core.experiment import ExperimentResult
from repro.store.campaign import Campaign, run_campaign
from repro.store.result_store import ResultStore
from repro.topology.graph import (
    DEFAULT_LINK_DELAY,
    GRID_SIZE,
    Router,
    Topology,
)


def flat_topology_from_edges(
    edges: Iterable[Tuple[int, int]],
    positions: Optional[Dict[int, Tuple[float, float]]] = None,
    delay: float = DEFAULT_LINK_DELAY,
) -> Topology:
    """A flat (one router per AS) topology from an edge list.

    Node ids double as AS numbers.  Positions default to a deterministic
    diagonal layout when not supplied.
    """
    edge_list = [tuple(sorted(e)) for e in edges]
    nodes = sorted({n for e in edge_list for n in e})
    topo = Topology(name="topology")
    for i, node in enumerate(nodes):
        if positions and node in positions:
            x, y = positions[node]
        else:
            step = GRID_SIZE / max(1, len(nodes))
            x = y = (i + 0.5) * step
        topo.add_router(Router(node_id=node, asn=node, x=x, y=y))
    for a, b in sorted(set(edge_list)):
        topo.connect(a, b, delay=delay)
    return topo


def infer_relationships(
    topology: Topology, peer_degree_ratio: float = 1.5
) -> ASRelationships:
    """Degree-heuristic relationships: across every inter-AS adjacency the
    AS whose inter-AS degree is at least ``peer_degree_ratio`` times the
    other's is the provider; comparable degrees make peers.

    Unlike the hierarchical inference the specs use, this leaves some
    (node, dest) pairs valley-free-unreachable, so it is what exercises
    the unreachable side of the valley-free oracle.
    """
    rels = ASRelationships()
    degrees = {
        asn: topology.inter_as_degree(asn) for asn in topology.as_numbers()
    }
    for link in topology.links:
        as_a = topology.as_of(link.a)
        as_b = topology.as_of(link.b)
        if as_a == as_b:
            continue
        da, db = degrees[as_a], degrees[as_b]
        if da >= db * peer_degree_ratio:
            rels.set_customer(provider=as_a, customer=as_b)
        elif db >= da * peer_degree_ratio:
            rels.set_customer(provider=as_b, customer=as_a)
        else:
            rels.set_peers(as_a, as_b)
    return rels


def line_topology(n: int = 4) -> Topology:
    """0 - 1 - 2 - ... - (n-1)."""
    return flat_topology_from_edges([(i, i + 1) for i in range(n - 1)])


def ring_topology(n: int = 5) -> Topology:
    """A cycle of n nodes."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return flat_topology_from_edges(edges)


def clique_topology(n: int = 4) -> Topology:
    """Complete graph on n nodes (the Labovitz worst-case family)."""
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return flat_topology_from_edges(edges)


def star_topology(n_leaves: int = 4) -> Topology:
    """Node 0 is the hub; leaves are 1..n."""
    return flat_topology_from_edges([(0, i) for i in range(1, n_leaves + 1)])


def run_cell(
    scheme: Dict[str, Any],
    seeds: Sequence[int],
    *,
    nodes: int = 24,
    failure: float = 0.1,
    pin: Optional[int] = None,
    **run: Any,
) -> ExperimentResult:
    """Run one scheme at one failure fraction over ``seeds`` as a
    one-cell campaign and return the cell's result.

    Every seed builds its own ``nodes``-node skewed topology, unless
    ``pin`` names the one topology seed all trials share.  ``run`` is
    passed to :func:`run_campaign` (``store``, ``jobs``, ``obs``,
    ``on_outcome``).
    """
    topology: Dict[str, Any] = {"kind": "skewed", "nodes": nodes}
    if pin is not None:
        topology["seed"] = pin
    campaign = Campaign(
        name="cell",
        topology=topology,
        schemes={"cell": scheme},
        axis="failure_fraction",
        values=[failure],
        seeds=list(seeds),
    )
    return run_campaign(campaign, **run).results[("cell", failure)]


def stored_keys(store: ResultStore) -> List[str]:
    """Every trial key banked in ``store``, in key order."""
    with closing(sqlite3.connect(store.path)) as conn:
        rows = conn.execute("SELECT key FROM trials ORDER BY key").fetchall()
    return [key for (key,) in rows]


def converged_network(
    topology: Topology,
    mrai: float = 0.5,
    seed: int = 1,
    **config_kwargs,
) -> BGPNetwork:
    """A network that has completed its warm-up convergence."""
    config = BGPConfig(mrai_policy=ConstantMRAI(mrai), **config_kwargs)
    network = BGPNetwork(topology, config, seed=seed)
    network.start()
    network.run_until_quiet(max_time=3600)
    assert network.is_quiescent(), "warm-up did not converge"
    return network


def total_loc_rib_routes(network: BGPNetwork) -> int:
    """Loc-RIB routes held across the network's alive speakers."""
    return sum(len(s.loc_rib) for s in network.alive_speakers())


def as_path(*asns: int) -> Path:
    """The AS path whose hops are ``asns``, first hop first, as the chain
    of cells a RIB holds (:mod:`repro.bgp.routes`)."""
    path: Path = ()
    for asn in reversed(asns):
        path = prepend(asn, path)
    return path


def rib_in_route_count(rib: AdjRibIn) -> int:
    """Routes an Adj-RIB-In holds, all peers and destinations."""
    return sum(rib._count)


def rib_in_destinations(rib: AdjRibIn) -> Set[int]:
    """Destinations for which an Adj-RIB-In holds at least one route."""
    return {dest for dest, n in enumerate(rib._count) if n}


def advertised(ps: PeerState) -> Dict[int, Optional[Path]]:
    """What a speaker last sent over a session, by destination: the path
    object itself (a cell, shared with the receiver's Adj-RIB-In), or None
    for a withdrawal; destinations never sent are absent."""
    return {
        dest: sent
        for dest, sent in enumerate(ps.adj_rib_out)
        if sent is not _NEVER_SENT
    }


def select(
    loc_rib: LocRib,
    dest: int,
    peer: Optional[int],
    path: Optional[Tuple[int, ...]],
) -> None:
    """Write a selection into a Loc-RIB's slots, bypassing the decision:
    the AS path ``path`` (a flat tuple, stored as :func:`as_path` builds
    it) learned from ``peer`` (None = locally originated), or no route
    when ``path`` is None.  The export slot is reset, as on any change."""
    loc_rib.peer[dest] = peer
    loc_rib.path[dest] = None if path is None else as_path(*path)
    loc_rib.export[dest] = None


@pytest.fixture
def line4() -> Topology:
    return line_topology(4)


@pytest.fixture
def ring5() -> Topology:
    return ring_topology(5)


@pytest.fixture
def clique4() -> Topology:
    return clique_topology(4)


@pytest.fixture
def star4() -> Topology:
    return star_topology(4)
