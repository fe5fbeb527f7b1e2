"""Property-based tests for BGP data structures and routing invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig
from repro.bgp.messages import Update
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.queues import DestinationBatchQueue, TCPBatchQueue
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.validation import validate_routing
from repro.topology.skewed import skewed_topology
from tests.conftest import advertised

# ---------------------------------------------------------------------------
# Queue disciplines conserve messages
# ---------------------------------------------------------------------------
updates = st.lists(
    st.builds(
        Update,
        dest=st.integers(min_value=0, max_value=5),
        path=st.one_of(
            st.none(),
            st.lists(st.integers(min_value=0, max_value=9), max_size=3).map(tuple),
        ),
        sender=st.integers(min_value=0, max_value=4),
    ),
    max_size=60,
)


@given(updates)
def test_dest_batch_conserves_messages(messages):
    q = DestinationBatchQueue(6)
    for m in messages:
        q.push(m)
    drained = 0
    dropped_total = 0
    while len(q):
        batch, dropped = q.pop_batch()
        drained += len(batch)
        dropped_total += dropped
        # Batch is single-destination with unique senders.
        assert len({m.dest for m in batch}) == 1
        assert len({m.sender for m in batch}) == len(batch)
    assert drained + dropped_total == len(messages)


@given(updates)
def test_dest_batch_keeps_newest_per_sender(messages):
    q = DestinationBatchQueue(6)
    for m in messages:
        q.push(m)
    retained = []
    while len(q):
        batch, __ = q.pop_batch()
        retained.extend(batch)
    # For every (dest, sender), the retained message is the last pushed.
    last = {}
    for m in messages:
        last[(m.dest, m.sender)] = m
    assert {id(m) for m in retained} == {id(m) for m in last.values()}


@given(updates, st.integers(min_value=1, max_value=10))
def test_tcp_batch_conserves_messages(messages, batch_size):
    q = TCPBatchQueue(batch_size)
    for m in messages:
        q.push(m)
    drained = 0
    dropped_total = 0
    while len(q):
        batch, dropped = q.pop_batch()
        assert len(batch) + dropped <= batch_size
        drained += len(batch)
        dropped_total += dropped
    assert drained + dropped_total == len(messages)


# ---------------------------------------------------------------------------
# End-to-end routing invariants on random small networks
# ---------------------------------------------------------------------------
def assert_peers_hold_what_was_last_sent(net):
    """At quiescence nothing is in flight, so over every session that is
    up the receiver's Adj-RIB-In is the sender's Adj-RIB-Out: the very
    path object the sender last sent (paths are shared between RIBs, not
    copied), and nothing where a withdrawal was last sent."""
    for sender in net.alive_speakers():
        for peer_id, ps in sender.peers.items():
            if not ps.session_up:
                continue
            rib_in = net.speakers[peer_id].adj_rib_in
            for dest, sent in advertised(ps).items():
                held = rib_in.get(dest, sender.node_id)
                assert held is sent, (sender.node_id, peer_id, dest)


def assert_routes_are_the_bfs_oracle(net):
    """Shortest-path policy on a flat topology has one converged state
    (arXiv 1001.3483), which a breadth-first search over alive nodes and up
    sessions computes without the protocol: every alive node's route to
    every reachable prefix is as long as the hop distance and leaves
    through the lowest-id neighbour one hop closer; no path names a failed
    AS; a prefix the node cannot reach has no route."""
    alive = [s.node_id for s in net.alive_speakers()]
    up = {
        node: sorted(
            peer
            for peer, ps in net.speakers[node].peers.items()
            if ps.session_up
        )
        for node in alive
    }
    failed = net.failed_nodes
    for origin, speaker in net.speakers.items():
        distance = {origin: 0} if origin in up else {}
        frontier = list(distance)
        for node in frontier:  # grows while it is walked: a BFS queue
            for peer in up[node]:
                if peer not in distance:
                    distance[peer] = distance[node] + 1
                    frontier.append(peer)
        for node in alive:
            route = net.speakers[node].loc_rib.get(speaker.asn)
            if node not in distance:
                assert route is None, (node, speaker.asn)
                continue
            hops = distance[node]
            closer = [peer for peer in up[node] if distance[peer] == hops - 1]
            assert route is not None, (node, speaker.asn)
            assert len(route.path) == hops, (node, speaker.asn, route.path)
            assert route.peer == min(closer, default=None), (node, speaker.asn)
            assert failed.isdisjoint(route.path), (node, route.path)


@settings(max_examples=12, deadline=None)
@given(
    topo_seed=st.integers(min_value=0, max_value=1000),
    sim_seed=st.integers(min_value=0, max_value=1000),
    mrai=st.sampled_from(
        [*map(ConstantMRAI, (0.0, 0.5, 2.25)), DynamicMRAI()]
    ),
    discipline=st.sampled_from(
        ["fifo", "dest_batch", "dest_batch_wf", "tcp_batch"]
    ),
    failure_seed=st.integers(min_value=0, max_value=1000),
    failure_count=st.integers(min_value=1, max_value=6),
)
def test_random_failures_always_converge_to_valid_routing(
    topo_seed, sim_seed, mrai, discipline, failure_seed, failure_count
):
    topo = skewed_topology(20, seed=topo_seed)
    config = BGPConfig(mrai_policy=mrai, queue_discipline=discipline)
    net = BGPNetwork(topo, config, seed=sim_seed)
    net.start()
    net.run_until_quiet(max_time=3600)
    assert net.is_quiescent()
    validate_routing(net)
    assert_peers_hold_what_was_last_sent(net)
    assert_routes_are_the_bfs_oracle(net)
    victims = random.Random(failure_seed).sample(
        topo.node_ids(), failure_count
    )
    net.fail_nodes(victims)
    net.run_until_quiet(max_time=7200)
    assert net.is_quiescent()
    validate_routing(net)
    assert_peers_hold_what_was_last_sent(net)
    assert_routes_are_the_bfs_oracle(net)
