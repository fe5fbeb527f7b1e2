"""Table-driven tests of the advertisement export rules.

``BGPSpeaker.export_route`` encodes the interaction of AS prepending,
iBGP non-reflection, sender-side loop suppression and export policy; this
suite enumerates the cases explicitly.
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.policy import ASRelationships, GaoRexfordPolicy
from repro.bgp.routes import path_tuple
from repro.bgp.speaker import PeerState
from repro.sim.timers import Jitter
from repro.topology.graph import Link, Router, Topology
from tests.conftest import select


def make_speaker(policy=None, sender_side=True):
    """A two-AS topology giving us one speaker with eBGP and iBGP peers."""
    topo = Topology(name="export-rules")
    topo.add_router(Router(0, 0, 0.0, 0.0))   # the speaker under test
    topo.add_router(Router(1, 0, 1.0, 0.0))   # iBGP peer
    topo.add_router(Router(2, 1, 2.0, 0.0))   # eBGP peer (AS 1)
    # Lone routers of ASes 2 .. 7 (no links) only make 7 a destination
    # of the network: RIB slots run 0 .. 7.
    for asn in range(2, 8):
        topo.add_router(Router(asn + 1, asn, 0.0, 1.0))
    topo.add_link(Link(0, 1, 0.025, "intra_as"))
    topo.add_link(Link(0, 2, 0.025, "inter_as"))
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        sender_side_loop_detection=sender_side,
        policy=policy,
    )
    net = BGPNetwork(topo, config, seed=1)
    speaker = net.speakers[0]
    return speaker


def ebgp_peer(speaker) -> PeerState:
    return speaker.peers[2]


def ibgp_peer(speaker) -> PeerState:
    return speaker.peers[1]


def exported(speaker, ps, dest):
    """``export_route`` as a flat tuple of AS numbers (None: nothing)."""
    path = speaker.export_route(ps, dest)
    return None if path is None else path_tuple(path)


def test_no_route_exports_nothing():
    speaker = make_speaker()
    assert speaker.export_route(ebgp_peer(speaker), 7) is None


def test_local_route_prepends_own_as_on_ebgp():
    speaker = make_speaker()
    speaker.originate(0)
    assert exported(speaker, ebgp_peer(speaker), 0) == (0,)


def test_local_route_unmodified_on_ibgp():
    speaker = make_speaker()
    speaker.originate(0)
    assert exported(speaker, ibgp_peer(speaker), 0) == ()


def test_learned_route_prepends_own_as_on_ebgp():
    speaker = make_speaker()
    select(speaker.loc_rib, 7, 2, (3, 7))
    # Wait: learned from AS 1's router 2 — but exporting back to router 2
    # would loop at the receiver only if AS 1 is in the path; (3, 7) is
    # not, so the export goes out with AS 0 prepended.
    assert exported(speaker, ebgp_peer(speaker), 7) == (0, 3, 7)


def test_sender_side_loop_suppression():
    speaker = make_speaker(sender_side=True)
    select(speaker.loc_rib, 7, 1, (1, 7))
    # Peer 2 is AS 1, which appears in the path -> suppressed.
    assert speaker.export_route(ebgp_peer(speaker), 7) is None


def test_sender_side_suppression_can_be_disabled():
    speaker = make_speaker(sender_side=False)
    select(speaker.loc_rib, 7, 1, (1, 7))
    assert exported(speaker, ebgp_peer(speaker), 7) == (0, 1, 7)


def test_ibgp_route_not_reflected_to_ibgp():
    speaker = make_speaker()
    select(speaker.loc_rib, 7, 1, (1, 7))
    assert speaker.export_route(ibgp_peer(speaker), 7) is None


def test_ebgp_route_exported_to_ibgp_unmodified():
    speaker = make_speaker()
    select(speaker.loc_rib, 7, 2, (1, 7))
    assert exported(speaker, ibgp_peer(speaker), 7) == (1, 7)


def test_policy_blocks_provider_route_to_peer():
    rels = ASRelationships()
    rels.set_customer(provider=5, customer=0)  # 5 is our provider
    rels.set_peers(0, 1)                       # AS 1 is our peer
    speaker = make_speaker(policy=GaoRexfordPolicy(rels))
    # Best route for 7 was learned from provider AS 5.
    select(speaker.loc_rib, 7, 2, (5, 7))
    assert speaker.export_route(ebgp_peer(speaker), 7) is None


def test_policy_allows_customer_route_everywhere():
    rels = ASRelationships()
    rels.set_customer(provider=0, customer=5)  # 5 is our customer
    rels.set_peers(0, 1)
    speaker = make_speaker(policy=GaoRexfordPolicy(rels))
    select(speaker.loc_rib, 7, 2, (5, 7))
    assert exported(speaker, ebgp_peer(speaker), 7) == (0, 5, 7)


def test_policy_allows_own_prefix_everywhere():
    rels = ASRelationships()
    rels.set_customer(provider=1, customer=0)  # AS 1 is our provider
    speaker = make_speaker(policy=GaoRexfordPolicy(rels))
    speaker.originate(0)
    assert exported(speaker, ebgp_peer(speaker), 0) == (0,)
