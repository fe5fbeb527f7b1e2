"""Tests for network assembly and failure injection."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.network import BGPNetwork
from repro.core.dynamic_mrai import DynamicMRAI
from repro.topology.serialize import FORMAT_VERSION, topology_from_dict
from tests.conftest import (
    clique_topology,
    converged_network,
    line_topology,
    ring_topology,
    total_loc_rib_routes,
)


def test_one_speaker_per_router():
    topo = ring_topology(5)
    net = BGPNetwork(topo)
    assert set(net.speakers) == set(topo.node_ids())
    for node_id, speaker in net.speakers.items():
        assert speaker.asn == topo.as_of(node_id)
        assert len(speaker.peers) == topo.degree(node_id)


def _line_with_asns(asns):
    """A topology document of a line whose routers carry ``asns``."""
    return {
        "format": "repro-topology",
        "version": FORMAT_VERSION,
        "routers": [
            {"id": i, "asn": asn, "x": 0.0, "y": 0.0}
            for i, asn in enumerate(asns)
        ],
        "links": [
            {"a": i, "b": i + 1, "delay": 0.025}
            for i in range(len(asns) - 1)
        ],
    }


@pytest.mark.parametrize(
    "asns",
    [(701, 1239, 3356), (0, 1, 4_200_000_000), (-1, 0, 1)],
    ids=["measured", "four-byte", "negative"],
)
def test_sparse_or_negative_as_numbers_are_refused(asns):
    # Destinations index per-peer RIB arrays by AS number: measured AS
    # numbers must be renumbered, not sized into gigabytes or wrapped
    # into another destination's slot.
    topo = topology_from_dict(_line_with_asns(asns))
    with pytest.raises(ValueError, match="not dense"):
        BGPNetwork(topo)


def test_dense_as_numbers_from_zero_or_one_route_everywhere():
    for asns in ((0, 1, 2), (1, 2, 3), (3, 1, 2)):
        net = converged_network(topology_from_dict(_line_with_asns(asns)))
        assert net.prefix_count == max(asns) + 1
        for speaker in net.speakers.values():
            assert speaker.loc_rib.destinations() == set(asns)


def test_only_the_networks_prefixes_can_be_originated():
    net = BGPNetwork(line_topology(3))
    for prefix in (3, -1):
        with pytest.raises(ValueError, match="not a destination"):
            net.speakers[0].originate(prefix)


def test_sessions_mirror_links():
    topo = line_topology(3)
    net = BGPNetwork(topo)
    assert set(net.speakers[1].peers) == {0, 2}
    assert set(net.speakers[0].peers) == {1}
    for ps in net.speakers[1].peers.values():
        assert ps.ebgp
        assert ps.delay == pytest.approx(0.025)


def test_controller_assigned_by_degree():
    topo = clique_topology(4)
    from repro.core.degree_mrai import DegreeDependentMRAI

    config = BGPConfig(mrai_policy=DegreeDependentMRAI(0.5, 2.25, 3))
    net = BGPNetwork(topo, config)
    # All clique nodes have degree 3 -> high MRAI.
    for speaker in net.speakers.values():
        assert speaker.controller.value() == 2.25


def test_start_originates_every_prefix():
    net = BGPNetwork(line_topology(3))
    net.start()
    for speaker in net.speakers.values():
        assert speaker.asn in speaker.own_prefixes


def test_alive_prefixes_track_failures():
    net = converged_network(line_topology(4))
    assert net.alive_prefixes() == {0, 1, 2, 3}
    net.fail_nodes([0, 1])
    assert net.alive_prefixes() == {2, 3}
    assert net.failed_nodes == {0, 1}


def test_fail_nodes_returns_t0_and_is_idempotent():
    net = converged_network(line_topology(4))
    t0 = net.fail_nodes([3])
    assert t0 == net.sim.now
    net.fail_nodes([3])  # idempotent
    assert net.failed_nodes == {3}


def test_partition_by_node_failure():
    net = converged_network(line_topology(5))
    net.fail_nodes([2])
    net.run_until_quiet()
    assert net.speakers[0].loc_rib.destinations() == {0, 1}
    assert net.speakers[4].loc_rib.destinations() == {3, 4}


def test_network_counters_accumulate():
    net = converged_network(ring_topology(5))
    assert net.counters["updates_sent"] > 0
    assert net.counters["route_changes"] > 0


def test_is_quiescent_during_activity():
    net = BGPNetwork(line_topology(3))
    net.start()
    assert not net.is_quiescent()  # messages in flight
    net.run_until_quiet()
    assert net.is_quiescent()


def test_total_loc_rib_routes():
    net = converged_network(ring_topology(4))
    assert total_loc_rib_routes(net) == 16
    net.fail_nodes([0])
    net.run_until_quiet()
    assert total_loc_rib_routes(net) == 9


def test_last_activity_monotone():
    net = BGPNetwork(line_topology(3))
    net.start()
    checkpoints = []
    net.run_until_quiet(max_time=0.01)
    checkpoints.append(net.last_activity)
    net.run_until_quiet()
    checkpoints.append(net.last_activity)
    assert checkpoints[0] <= checkpoints[1]


def test_dynamic_policy_gives_each_node_its_own_controller():
    config = BGPConfig(mrai_policy=DynamicMRAI())
    net = BGPNetwork(ring_topology(4), config)
    controllers = [s.controller for s in net.speakers.values()]
    assert len(set(map(id, controllers))) == 4


def test_deterministic_replay():
    def run():
        net = converged_network(ring_topology(6), seed=7)
        net.fail_nodes([0])
        net.run_until_quiet()
        return (
            net.counters.snapshot(),
            net.last_activity,
            {
                n: {d: r.path for d, r in s.loc_rib.items()}
                for n, s in net.speakers.items()
                if s.alive
            },
        )

    assert run() == run()


def test_different_seed_changes_timing_but_not_outcome():
    def run(seed):
        net = converged_network(ring_topology(6), seed=seed)
        net.fail_nodes([0])
        net.run_until_quiet()
        return net.last_activity, {
            n: s.loc_rib.destinations()
            for n, s in net.speakers.items()
            if s.alive
        }

    t1, ribs1 = run(1)
    t2, ribs2 = run(2)
    assert ribs1 == ribs2  # same reachability outcome
    assert t1 != t2  # different stochastic timing
