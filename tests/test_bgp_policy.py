"""Tests for routing policies (Gao-Rexford) and valley-free validation."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.policy import (
    CUSTOMER,
    PEER,
    PROVIDER,
    ASRelationships,
    GaoRexfordPolicy,
    ShortestPathPolicy,
)
from repro.bgp.routes import Route
from repro.sim.timers import Jitter
from repro.topology.skewed import skewed_topology
from tests.conftest import flat_topology_from_edges, infer_relationships
from tests.reference_valley_free import (
    validate_gao_rexford,
    valley_free_prefixes,
)


# ---------------------------------------------------------------------------
# Relationships
# ---------------------------------------------------------------------------
def test_relationship_declaration_and_lookup():
    rels = ASRelationships()
    rels.set_customer(provider=1, customer=2)
    rels.set_peers(1, 3)
    assert rels.relation(1, 2) == CUSTOMER
    assert rels.relation(2, 1) == PROVIDER
    assert rels.relation(1, 3) == PEER
    assert rels.relation(3, 1) == PEER
    # Unlabeled adjacencies default to peering.
    assert rels.relation(7, 8) == PEER
    assert len(rels.items()) == 4  # two declarations, both directions


def test_relationship_self_rejected():
    rels = ASRelationships()
    with pytest.raises(ValueError):
        rels.set_customer(1, 1)
    with pytest.raises(ValueError):
        rels.set_peers(2, 2)


def test_infer_relationships_degree_heuristic():
    # Star: hub 0 has degree 4, leaves have degree 1 -> hub is provider.
    topo = flat_topology_from_edges([(0, i) for i in range(1, 5)])
    rels = infer_relationships(topo)
    for leaf in range(1, 5):
        assert rels.relation(0, leaf) == CUSTOMER
        assert rels.relation(leaf, 0) == PROVIDER


def test_infer_relationships_similar_degrees_peer():
    topo = flat_topology_from_edges([(0, 1), (1, 2), (2, 0)])  # triangle
    rels = infer_relationships(topo)
    assert rels.relation(0, 1) == PEER


def test_hierarchical_inference_preserves_full_reachability():
    from repro.bgp.policy import infer_relationships_hierarchical

    topo = skewed_topology(40, seed=9)
    rels = infer_relationships_hierarchical(topo)
    net = run_policy_network(topo, rels, seed=2)
    expected = valley_free_prefixes(net, rels)
    assert all(len(p) == 40 for p in expected.values())
    validate_gao_rexford(net, rels)


def test_hierarchical_inference_tree_edges_are_provider_links():
    from repro.bgp.policy import infer_relationships_hierarchical

    # Star: hub must be the provider of every leaf.
    topo = flat_topology_from_edges([(0, i) for i in range(1, 5)])
    rels = infer_relationships_hierarchical(topo)
    for leaf in range(1, 5):
        assert rels.relation(0, leaf) == CUSTOMER


def test_hierarchical_inference_rejects_multirouter():
    from repro.bgp.policy import infer_relationships_hierarchical
    from repro.topology.multirouter import (
        MultiRouterSpec,
        multi_router_topology,
    )

    topo = multi_router_topology(MultiRouterSpec(num_ases=8), seed=1)
    with pytest.raises(ValueError):
        infer_relationships_hierarchical(topo)


# ---------------------------------------------------------------------------
# Policy rules
# ---------------------------------------------------------------------------
def test_shortest_path_policy_allows_everything():
    policy = ShortestPathPolicy()
    assert policy.import_rank(1, 5) == 0
    assert policy.export_allowed(1, 5, 6)
    assert policy.export_allowed(1, None, 6)


def test_gao_rexford_import_ranks():
    rels = ASRelationships()
    rels.set_customer(provider=1, customer=2)   # 2 is 1's customer
    rels.set_customer(provider=3, customer=1)   # 3 is 1's provider
    rels.set_peers(1, 4)
    policy = GaoRexfordPolicy(rels)
    assert policy.import_rank(1, 2) == 0  # customer best
    assert policy.import_rank(1, 4) == 1  # then peer
    assert policy.import_rank(1, 3) == 2  # then provider


def test_gao_rexford_export_rules():
    rels = ASRelationships()
    rels.set_customer(provider=1, customer=2)
    rels.set_customer(provider=3, customer=1)
    rels.set_peers(1, 4)
    policy = GaoRexfordPolicy(rels)
    # Customer-learned: export to everyone.
    assert policy.export_allowed(1, learned_from_asn=2, to_asn=3)
    assert policy.export_allowed(1, learned_from_asn=2, to_asn=4)
    # Peer-learned: only to customers.
    assert policy.export_allowed(1, learned_from_asn=4, to_asn=2)
    assert not policy.export_allowed(1, learned_from_asn=4, to_asn=3)
    # Provider-learned: only to customers.
    assert policy.export_allowed(1, learned_from_asn=3, to_asn=2)
    assert not policy.export_allowed(1, learned_from_asn=3, to_asn=4)
    # Own prefixes: everyone.
    assert policy.export_allowed(1, learned_from_asn=None, to_asn=3)


def test_rank_dominates_path_length_in_decision():
    customer_route = Route(9, (2, 7, 9), peer=2, rank=0)  # longer, customer
    provider_route = Route(9, (3, 9), peer=3, rank=2)     # shorter, provider
    assert customer_route.preference_key() < provider_route.preference_key()


# ---------------------------------------------------------------------------
# End-to-end valley-free behaviour
# ---------------------------------------------------------------------------
def valley_topology():
    """Two customer leaves (1, 2) under two providers (3, 4) that peer.

        3 ----peer---- 4
        |              |
        1              2
    """
    topo = flat_topology_from_edges([(1, 3), (2, 4), (3, 4)])
    rels = ASRelationships()
    rels.set_customer(provider=3, customer=1)
    rels.set_customer(provider=4, customer=2)
    rels.set_peers(3, 4)
    return topo, rels


def run_policy_network(topo, rels, seed=1):
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        policy=GaoRexfordPolicy(rels),
    )
    net = BGPNetwork(topo, config, seed=seed)
    net.start()
    net.run_until_quiet(max_time=3600)
    assert net.is_quiescent()
    return net


def test_valley_free_routing_end_to_end():
    topo, rels = valley_topology()
    net = run_policy_network(topo, rels)
    # Leaves reach everything by climbing then crossing the single peering.
    assert net.speakers[1].loc_rib.destinations() == {1, 2, 3, 4}
    # Providers must NOT route provider/peer traffic through customers, and
    # a peer-learned route is never re-exported to the other peer — all
    # fine here; the key: no valley paths exist anywhere.
    validate_gao_rexford(net, rels)


def test_peer_learned_route_not_reexported_to_peer():
    # Chain of peers: 0 -peer- 1 -peer- 2.  1 must not give 0's route to 2.
    topo = flat_topology_from_edges([(0, 1), (1, 2)])
    rels = ASRelationships()
    rels.set_peers(0, 1)
    rels.set_peers(1, 2)
    net = run_policy_network(topo, rels)
    assert 0 not in net.speakers[2].loc_rib.destinations()
    assert 2 not in net.speakers[0].loc_rib.destinations()
    # Direct neighbors still reach each other.
    assert 1 in net.speakers[0].loc_rib.destinations()
    validate_gao_rexford(net, rels)


def test_valley_free_prefixes_oracle_matches_protocol():
    topo = skewed_topology(30, seed=6)
    rels = infer_relationships(topo)
    net = run_policy_network(topo, rels)
    expected = valley_free_prefixes(net, rels)
    for speaker in net.alive_speakers():
        assert speaker.loc_rib.destinations() == expected[speaker.node_id]


def test_policy_network_survives_failure_and_validates():
    topo = skewed_topology(30, seed=6)
    rels = infer_relationships(topo)
    net = run_policy_network(topo, rels)
    net.fail_nodes(topo.nodes_by_distance(500, 500)[:4])
    net.run_until_quiet(max_time=3600)
    validate_gao_rexford(net, rels)


def test_policy_reduces_update_messages():
    topo = skewed_topology(30, seed=6)
    rels = infer_relationships(topo)

    def messages(policy):
        config = BGPConfig(
            mrai_policy=ConstantMRAI(0.5),
            processing_delay_range=(0.0, 0.0),
            mrai_jitter=Jitter(1.0, 1.0),
            policy=policy,
        )
        net = BGPNetwork(topo, config, seed=1)
        net.start()
        net.run_until_quiet(max_time=3600)
        return net.counters["updates_sent"]

    assert messages(GaoRexfordPolicy(rels)) < messages(None)


def test_valley_free_oracle_rejects_multirouter():
    from repro.topology.multirouter import MultiRouterSpec, multi_router_topology

    topo = multi_router_topology(MultiRouterSpec(num_ases=8), seed=1)
    net = BGPNetwork(topo, BGPConfig(), seed=1)
    with pytest.raises(ValueError):
        valley_free_prefixes(net, ASRelationships())
