"""Oracles for every reader of a stored AS path.

Inside :mod:`repro.bgp` an AS path is a chain of cells
(:mod:`repro.bgp.routes`), so a reader that took a cell for the flat tuple
of AS numbers would see only the first hop, the tail and the length.  Each
test here drives a reader with paths of three or more hops and checks it
against an answer computed from the flat :class:`~repro.bgp.routes.Route`
views, on a case where that mistake changes the answer.  The tests touch
no path helper: the paths they plant are objects the network itself
stored or exported.
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.policy import ASRelationships, GaoRexfordPolicy
from repro.core.experiment import ExperimentSpec, build_scenario
from repro.core.validation import RoutingViolation, validate_routing
from repro.obs.probes import count_invalid_routes
from repro.sim.trace import Tracer
from repro.topology.skewed import skewed_topology
from tests.conftest import (
    clique_topology,
    converged_network,
    flat_topology_from_edges,
    line_topology,
)
from tests.reference_valley_free import validate_gao_rexford


def plant(speaker, dest, peer, path):
    """Write ``path`` (a path object the network built) as ``speaker``'s
    selection for ``dest`` from ``peer``, bypassing the decision."""
    loc = speaker.loc_rib
    loc.peer[dest] = peer
    loc.path[dest] = path
    loc.export[dest] = None


def export_via(network, node, peer, dest, path):
    """What ``node`` would send ``peer`` for ``dest`` had it selected
    ``path`` (from the peer it came from): its own AS in front of it.
    The node's Loc-RIB is left as it was."""
    loc = network.speakers[node].loc_rib
    saved = loc.peer[dest], loc.path[dest], loc.export[dest]
    plant(network.speakers[node], dest, peer, path)
    try:
        return network.speakers[node].export_route(
            network.speakers[node].peers[peer], dest
        )
    finally:
        loc.peer[dest], loc.path[dest], loc.export[dest] = saved


# ---------------------------------------------------------------------------
# count_invalid_routes
# ---------------------------------------------------------------------------
def test_count_invalid_routes_finds_the_dead_as_past_the_first_hop():
    # 0 - 1 - 2 - 3 - 4 - 5 - 6.  Right after 3 fails, routes across it
    # are still held: node 0's route to 6 is (1, 2, 3, 4, 5, 6), the dead
    # AS at hop 3, neither its first hop nor its length.
    net = converged_network(line_topology(7))
    net.fail_nodes([3])
    dead = {3}
    expected = 0
    deep = False
    for speaker in net.alive_speakers():
        for __, route in speaker.loc_rib.items():
            on_path = [i for i, asn in enumerate(route.path) if asn in dead]
            if on_path:
                expected += 1
                deep |= on_path[0] >= 1 and len(route.path) not in dead
    assert deep and expected >= 4
    assert count_invalid_routes(net) == expected
    net.run_until_quiet()
    assert count_invalid_routes(net) == 0


# ---------------------------------------------------------------------------
# validate_routing on paths of three hops and more
# ---------------------------------------------------------------------------
def test_validate_accepts_long_realizable_paths():
    # Every route of a converged 6-node line is a live chain of links, up
    # to five hops long.
    net = converged_network(line_topology(6))
    assert net.speakers[0].best_route(5).path == (1, 2, 3, 4, 5)
    validate_routing(net)


def test_validate_detects_a_loop_in_a_three_hop_path():
    # 0 - 1 - 2 - 3.  Node 2 holds (1, 0) for prefix 0; had node 1 taken
    # that path from 2, it would export (1, 1, 0) back to 2.
    net = converged_network(line_topology(4))
    looped = export_via(net, 1, 2, 0, net.speakers[2].loc_rib.path[0])
    assert looped is not None
    plant(net.speakers[2], 0, 1, looped)
    assert net.speakers[2].best_route(0).path == (1, 1, 0)
    with pytest.raises(RoutingViolation, match="node 2: AS path for 0 has a loop"):
        validate_routing(net)


def test_validate_detects_own_as_at_the_third_hop():
    # 0 - 1 - 2 - 3 - 4: node 3's route to 0 is (2, 1, 0); as node 0's
    # route to 2 (through neighbor 1) it names node 0's own AS last.
    net = converged_network(line_topology(5))
    plant(net.speakers[0], 2, 1, net.speakers[3].loc_rib.path[0])
    assert net.speakers[0].best_route(2).path == (2, 1, 0)
    with pytest.raises(RoutingViolation, match="node 0: own AS in path for 2"):
        validate_routing(net)


def test_validate_detects_a_missing_link_past_the_first_hop():
    # 0 - 1 - 2 - 3 - 4: node 2's route to 4 is (3, 4); exported by node
    # 1 to node 0 it reads (1, 3, 4), and 1 - 3 is no link.
    net = converged_network(line_topology(5))
    skipping = export_via(net, 1, 0, 4, net.speakers[2].loc_rib.path[4])
    plant(net.speakers[0], 4, 1, skipping)
    assert net.speakers[0].best_route(4).path == (1, 3, 4)
    with pytest.raises(RoutingViolation, match="node 0: unrealizable path for 4"):
        validate_routing(net)


# ---------------------------------------------------------------------------
# Sender-side loop detection
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("sender_side", [True, False])
def test_sender_side_loop_detection_sends_no_path_through_the_receiver(
    sender_side,
):
    # Path exploration in a clique whose origin fails explores paths that
    # run through the receiver at any hop; checked at the sender, none is
    # sent, so no receiver ever rejects one.
    net = converged_network(
        clique_topology(5), sender_side_loop_detection=sender_side
    )
    net.fail_nodes([4])
    net.run_until_quiet()
    rejected = net.counters["updates_loop_rejected"]
    if sender_side:
        assert rejected == 0
    else:
        assert rejected > 0


# ---------------------------------------------------------------------------
# Gao-Rexford import rank and export filter on multi-hop paths
# ---------------------------------------------------------------------------
def policy_network():
    """Node 0 with customer 1, provider 2 and peer 3.

    Prefix 6 is reachable through the customer chain 1 - 4 - 5 - 6 and
    through provider 2, which 6 is a customer of; prefix 8 only through
    provider 2 and its customer chain 2 - 7 - 8.
    """
    topo = flat_topology_from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 6), (2, 6), (2, 7), (7, 8)]
    )
    rels = ASRelationships()
    for provider, customer in (
        (0, 1), (2, 0), (1, 4), (4, 5), (5, 6), (2, 6), (2, 7), (7, 8)
    ):
        rels.set_customer(provider=provider, customer=customer)
    rels.set_peers(0, 3)
    config = BGPConfig(mrai_policy=ConstantMRAI(0.5), policy=GaoRexfordPolicy(rels))
    net = BGPNetwork(topo, config, seed=1)
    net.start()
    net.run_until_quiet(max_time=3600)
    assert net.is_quiescent()
    return net, rels


def test_gao_rexford_ranks_a_long_path_by_its_first_hop():
    # The four-hop customer route beats the two-hop provider route.
    net, rels = policy_network()
    route = net.speakers[0].best_route(6)
    assert (route.peer, route.path) == (1, (1, 4, 5, 6))
    validate_gao_rexford(net, rels)


def test_gao_rexford_filters_a_long_path_by_its_first_hop():
    # Prefix 8 is provider-learned at node 0, (2, 7, 8): exported to the
    # customer, never to the peer.  The customer-learned route to 6 goes
    # to the peer.
    net, __ = policy_network()
    node = net.speakers[0]
    assert node.best_route(8).path == (2, 7, 8)
    assert node.export_route(node.peers[3], 8) is None
    assert node.export_route(node.peers[1], 8) is not None
    assert net.speakers[1].best_route(8).path == (0, 2, 7, 8)
    assert 8 not in net.speakers[3].loc_rib.destinations()
    assert net.speakers[3].best_route(6).path == (0, 1, 4, 5, 6)


# ---------------------------------------------------------------------------
# Trace records carry flat AS paths
# ---------------------------------------------------------------------------
def test_trace_records_carry_the_flat_paths_of_the_route_views():
    topology = skewed_topology(20, seed=1)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.2)
    tracer = Tracer()
    net = BGPNetwork(topology, spec.to_bgp_config(), seed=1, tracer=tracer)
    net.start()
    net.run_until_quiet()
    net.fail_nodes(build_scenario(topology, spec, 1).nodes)
    net.run_until_quiet()

    def flat(path):
        return path is None or (
            type(path) is tuple and all(type(asn) is int for asn in path)
        )

    selected = {}
    sent = {}
    for record in tracer.records:
        if record.category == "route_change":
            dest, path = record.detail
            selected[record.node, dest] = path
        elif record.category == "causality" and record.detail[0] == "send":
            __, __, __, dest, peer, path = record.detail
            sent[record.node, peer, dest] = path
        else:
            continue
        assert flat(record.detail[-1]), record
    assert len(selected) > 100 and len(sent) > 100
    for speaker in net.alive_speakers():
        for (node, dest), path in selected.items():
            if node != speaker.node_id:
                continue
            route = speaker.best_route(dest)
            assert path == (None if route is None else route.path)
        for peer_id, ps in speaker.peers.items():
            if not ps.session_up:
                continue
            for dest in range(net.prefix_count):
                path = sent.get((speaker.node_id, peer_id, dest))
                route = speaker.best_route(dest)
                if path is not None:
                    assert path == (speaker.asn,) + route.path
