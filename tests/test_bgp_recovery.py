"""Tests for node recovery and genuine route-flap scenarios."""

from repro.bgp.config import BGPConfig
from repro.bgp.damping import DampingConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.validation import validate_routing
from repro.sim.timers import Jitter
from repro.topology.skewed import skewed_topology
from tests.conftest import (
    advertised,
    converged_network,
    line_topology,
    ring_topology,
)


def test_recovery_restores_full_reachability():
    net = converged_network(ring_topology(6))
    net.fail_nodes([2])
    net.run_until_quiet()
    assert 2 not in net.speakers[0].loc_rib.destinations()
    net.recover_nodes([2])
    net.run_until_quiet()
    validate_routing(net)
    for speaker in net.speakers.values():
        assert speaker.loc_rib.destinations() == set(range(6))
    assert net.counters["nodes_recovered"] == 1
    assert net.failed_nodes == set()


def test_recovered_router_has_cold_state():
    net = converged_network(line_topology(4))
    net.fail_nodes([1])
    net.run_until_quiet()
    net.recover_nodes([1])
    # Before running: RIB holds only the re-originated own prefix.
    assert net.speakers[1].loc_rib.destinations() == {1}
    assert net.speakers[1].adj_rib_in.route_count() == 0
    net.run_until_quiet()
    assert net.speakers[1].loc_rib.destinations() == {0, 1, 2, 3}


def test_recovery_is_idempotent_and_ignores_alive_nodes():
    net = converged_network(line_topology(3))
    net.recover_nodes([0])  # already alive: no-op
    assert net.counters["nodes_recovered"] == 0
    net.fail_nodes([2])
    net.run_until_quiet()
    net.recover_nodes([2])
    net.recover_nodes([2])
    assert net.counters["nodes_recovered"] == 1


def test_recovery_mid_partition_heals_the_partition():
    net = converged_network(line_topology(5))
    net.fail_nodes([2])
    net.run_until_quiet()
    assert net.speakers[0].loc_rib.destinations() == {0, 1}
    net.recover_nodes([2])
    net.run_until_quiet()
    validate_routing(net)
    assert net.speakers[0].loc_rib.destinations() == {0, 1, 2, 3, 4}


def test_repeated_fail_recover_cycles_stay_correct():
    net = converged_network(skewed_topology(24, seed=5))
    victim = net.topology.nodes_by_distance(500, 500)[0]
    for _ in range(3):
        net.fail_nodes([victim])
        net.run_until_quiet()
        net.recover_nodes([victim])
        net.run_until_quiet()
    validate_routing(net)


def test_table_transfer_arms_the_timers_of_what_it_sent():
    """Per-destination MRAI: a (re-)established session's table transfer
    arms the timer of every destination it advertised — not one phantom
    timer keyed by no destination, which let the first change after the
    transfer escape the MRAI."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(10.0),
        mrai_jitter=Jitter.none(),
        per_destination_mrai=True,
    )
    topology = skewed_topology(20, seed=3)
    net = BGPNetwork(topology, config, seed=1)
    net.start()
    net.run_until_quiet()
    hub = max(topology.node_ids(), key=topology.degree)
    net.fail_nodes([hub])
    net.run_until_quiet()
    net.recover_nodes([hub])
    # Long enough for every transfer, shorter than the MRAI.
    net.sim.run(until=net.sim.now + 3.0)
    destinations = set(net.alive_prefixes())
    recovered = net.speakers[hub]
    assert recovered.peers
    for peer_id, ps in recovered.peers.items():
        for end in (ps, net.speakers[peer_id].peers[hub]):
            assert end.session_up and advertised(end)
            assert set(end.timers) <= destinations
            for dest in advertised(end):
                assert end.timers[dest].running, (peer_id, dest)


def test_flapping_prefix_gets_damped_for_real():
    """The RFC 2439 use case: a genuinely flapping router.

    Node 3 (a leaf on the line) flaps three times.  With damping, its
    neighbors suppress its prefix: after the final recovery the prefix
    stays invisible until the penalty decays, then returns.
    """
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter.none(),
        damping=DampingConfig(half_life=5.0),
    )
    net = BGPNetwork(line_topology(4), config, seed=1)
    net.start()
    net.run_until_quiet()
    for _ in range(3):
        net.fail_nodes([3])
        net.run_until_quiet(max_time=net.sim.now + 2.0)
        net.recover_nodes([3])
        net.run_until_quiet(max_time=net.sim.now + 2.0)
    assert net.counters["routes_suppressed"] > 0
    # While suppressed: node 2 has no route to 3's prefix even though the
    # session is up and node 3 is alive.
    assert net.speakers[3].alive
    suppressed_now = 3 not in net.speakers[2].loc_rib.destinations()
    # Let penalties decay; the reuse timer reinstates the route.
    net.run_until_quiet()
    assert net.counters["routes_reused"] > 0
    assert 3 in net.speakers[2].loc_rib.destinations()
    validate_routing(net)
    assert suppressed_now, "prefix should have been invisible while damped"


def test_flapping_without_damping_churns_every_cycle():
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter.none(),
    )
    net = BGPNetwork(line_topology(4), config, seed=1)
    net.start()
    net.run_until_quiet()
    messages_per_cycle = []
    for _ in range(3):
        before = net.counters["updates_sent"]
        net.fail_nodes([3])
        net.run_until_quiet()
        net.recover_nodes([3])
        net.run_until_quiet()
        messages_per_cycle.append(net.counters["updates_sent"] - before)
    # Undamped: every cycle costs roughly the same churn; nothing learns.
    assert min(messages_per_cycle) > 0
    assert max(messages_per_cycle) <= min(messages_per_cycle) * 2
