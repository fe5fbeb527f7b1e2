"""iBGP behaviour on multi-router-per-AS topologies."""

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.routes import path_tuple
from repro.sim.timers import Jitter
from repro.topology.graph import Link, Router, Topology


def two_as_topology():
    """AS 0 = routers {0, 1, 2} (line), AS 1 = router {3}; eBGP 2-3."""
    topo = Topology(name="two-as")
    for node_id, asn in ((0, 0), (1, 0), (2, 0), (3, 1)):
        topo.add_router(Router(node_id, asn, float(node_id), 0.0))
    topo.add_link(Link(0, 1, 0.025, "intra_as"))
    topo.add_link(Link(1, 2, 0.025, "intra_as"))
    topo.add_link(Link(2, 3, 0.025, "inter_as"))
    topo.validate()
    return topo


def three_as_topology():
    """AS0={0,1}, AS1={2,3}, AS2={4}; eBGP 1-2 and 3-4."""
    topo = Topology(name="three-as")
    for node_id, asn in ((0, 0), (1, 0), (2, 1), (3, 1), (4, 2)):
        topo.add_router(Router(node_id, asn, float(node_id), 0.0))
    topo.add_link(Link(0, 1, 0.025, "intra_as"))
    topo.add_link(Link(2, 3, 0.025, "intra_as"))
    topo.add_link(Link(1, 2, 0.025, "inter_as"))
    topo.add_link(Link(3, 4, 0.025, "inter_as"))
    topo.validate()
    return topo


def build(topo, seed=1):
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    net = BGPNetwork(topo, config, seed=seed)
    net.start()
    net.run_until_quiet()
    assert net.is_quiescent()
    return net


def test_ibgp_full_mesh_sessions():
    net = BGPNetwork(two_as_topology())
    # Routers 0,1,2 are fully meshed over iBGP even though the physical
    # intra-AS graph is a line.
    assert set(net.speakers[0].peers) == {1, 2}
    assert not net.speakers[0].peers[1].ebgp
    assert not net.speakers[0].peers[2].ebgp
    assert net.speakers[2].peers[3].ebgp


def test_every_router_reaches_every_prefix():
    net = build(two_as_topology())
    for speaker in net.speakers.values():
        assert speaker.loc_rib.destinations() == {0, 1}


def test_as_path_not_extended_over_ibgp():
    net = build(two_as_topology())
    # Router 0 learns prefix 1 (AS 1) via iBGP from border router 2; the
    # path must be exactly (1,), not lengthened by internal hops.
    route = net.speakers[0].best_route(1)
    assert route is not None
    assert route.path == (1,)
    assert not route.ebgp
    assert route.peer == 2


def test_as_path_prepended_once_per_as():
    net = build(three_as_topology())
    # AS2's router 4 sees AS0's prefix with path (1, 0): one hop per AS.
    route = net.speakers[4].best_route(0)
    assert route is not None
    assert route.path == (1, 0)


def test_ibgp_learned_routes_not_reflected():
    net = build(three_as_topology())
    # Router 2 learns prefix 0 over eBGP and tells iBGP peer 3; router 3
    # must NOT re-advertise it to other iBGP peers (there are none here,
    # so check the export rule directly).
    speaker3 = net.speakers[3]
    route = speaker3.best_route(0)
    assert route is not None and not route.ebgp
    export_to_ibgp = speaker3.export_route(speaker3.peers[2], 0)
    assert export_to_ibgp is None
    # But it IS advertised over eBGP to AS 2 (with own AS prepended).
    export_to_ebgp = speaker3.export_route(speaker3.peers[4], 0)
    assert path_tuple(export_to_ebgp) == (1, 0)


def test_ebgp_preferred_over_ibgp_on_tie():
    # Square: AS0={0,1} fully meshed internally; both 0 and 1 have eBGP
    # links to AS1's single router 2.
    topo = Topology(name="tie")
    topo.add_router(Router(0, 0, 0.0, 0.0))
    topo.add_router(Router(1, 0, 1.0, 0.0))
    topo.add_router(Router(2, 1, 2.0, 0.0))
    topo.add_link(Link(0, 1, 0.025, "intra_as"))
    topo.add_link(Link(0, 2, 0.025, "inter_as"))
    topo.add_link(Link(1, 2, 0.025, "inter_as"))
    topo.validate()
    net = build(topo)
    # Router 0 hears prefix 1 over eBGP (from 2) and over iBGP (from 1,
    # which also heard it from 2).  Both paths are (1,): eBGP must win.
    route = net.speakers[0].best_route(1)
    assert route is not None
    assert route.ebgp
    assert route.peer == 2


def test_border_router_failure_reroutes_as():
    net = build(three_as_topology())
    # Kill border router 3 of AS1: router 4 (AS2) loses everything (3 was
    # its only neighbor); AS0 and router 2 keep each other.
    net.fail_nodes([3])
    net.run_until_quiet()
    assert net.speakers[4].loc_rib.destinations() == {2}
    assert net.speakers[0].loc_rib.destinations() == {0, 1}
    assert net.speakers[2].loc_rib.destinations() == {0, 1}


def test_partial_as_failure_keeps_prefix_alive():
    net = build(two_as_topology())
    # Kill router 0 (interior of AS 0); prefix 0 stays alive because every
    # router of the AS originates it.
    net.fail_nodes([0])
    net.run_until_quiet()
    assert net.speakers[3].best_route(0) is not None
    assert 0 in net.speakers[3].loc_rib.destinations()
