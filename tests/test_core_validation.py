"""Tests for routing-correctness validation."""

import pytest

from repro.core.validation import (
    RoutingViolation,
    reachable_prefixes,
    validate_routing,
)
from repro.obs.probes import count_invalid_routes
from tests.conftest import (
    clique_topology,
    converged_network,
    line_topology,
    ring_topology,
    select,
)


def test_validate_accepts_converged_network():
    net = converged_network(ring_topology(6))
    validate_routing(net)


def test_validate_accepts_post_failure_state():
    net = converged_network(clique_topology(5))
    net.fail_nodes([0])
    net.run_until_quiet()
    validate_routing(net)


def test_validate_accepts_partitioned_network():
    net = converged_network(line_topology(5))
    net.fail_nodes([2])
    net.run_until_quiet()
    validate_routing(net)


def test_validate_requires_quiescence():
    net = converged_network(line_topology(3))
    net.sim.schedule(1.0, lambda: None)
    with pytest.raises(RoutingViolation):
        validate_routing(net)


def test_validate_detects_missing_route():
    net = converged_network(ring_topology(5))
    select(net.speakers[0].loc_rib, 2, None, None)
    with pytest.raises(RoutingViolation, match="no route"):
        validate_routing(net)


def test_validate_detects_route_to_dead_prefix():
    net = converged_network(ring_topology(5))
    net.fail_nodes([3])
    net.run_until_quiet()
    # Manually resurrect a stale route to the dead prefix.
    select(net.speakers[0].loc_rib, 3, 4, (4, 3))
    with pytest.raises(RoutingViolation):
        validate_routing(net)


def test_validate_detects_looped_path():
    net = converged_network(ring_topology(5))
    select(net.speakers[0].loc_rib, 2, 1, (1, 1))
    with pytest.raises(RoutingViolation):
        validate_routing(net)


def test_validate_detects_own_as_in_path():
    net = converged_network(ring_topology(5))
    select(net.speakers[0].loc_rib, 2, 1, (1, 0, 2))
    with pytest.raises(RoutingViolation):
        validate_routing(net)


def test_validate_detects_route_via_dead_session():
    net = converged_network(ring_topology(5))
    select(net.speakers[0].loc_rib, 2, 9, (9, 2))
    with pytest.raises(RoutingViolation):
        validate_routing(net)


def test_validate_detects_unrealizable_path():
    net = converged_network(ring_topology(5))
    # Node 0's neighbors are 1 and 4; path (1, 3) skips a hop (1-3 is not
    # a link on the 5-ring).
    select(net.speakers[0].loc_rib, 3, 1, (1, 3))
    with pytest.raises(RoutingViolation, match="unrealizable|no route|loop"):
        validate_routing(net)


def test_reachable_prefixes_full_and_partitioned():
    net = converged_network(line_topology(4))
    assert reachable_prefixes(net, 0) == {0, 1, 2, 3}
    net.fail_nodes([2])
    net.run_until_quiet()
    assert reachable_prefixes(net, 0) == {0, 1}
    assert reachable_prefixes(net, 3) == {3}
    assert reachable_prefixes(net, 2) == set()  # dead node


def test_count_invalid_routes_zero_after_convergence():
    net = converged_network(clique_topology(5))
    net.fail_nodes([0])
    net.run_until_quiet()
    assert count_invalid_routes(net) == 0


def test_count_invalid_routes_detects_stale_path():
    net = converged_network(clique_topology(5))
    net.fail_nodes([0])
    net.run_until_quiet()
    select(net.speakers[1].loc_rib, 2, 3, (0, 2))
    assert count_invalid_routes(net) == 1
