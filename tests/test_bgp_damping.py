"""Tests for route flap damping (RFC 2439)."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.damping import DampingConfig, DampingState
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.validation import validate_routing
from repro.sim.timers import Jitter
from repro.topology.skewed import skewed_topology
from tests.conftest import clique_topology, line_topology


# ---------------------------------------------------------------------------
# Config / state unit tests
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        DampingConfig(half_life=0.0)
    with pytest.raises(ValueError):
        DampingConfig(reuse_threshold=3000.0)  # above cut
    with pytest.raises(ValueError):
        DampingConfig(withdrawal_penalty=-1.0)
    with pytest.raises(ValueError):
        DampingConfig(max_penalty=100.0)


def test_penalty_accumulates_and_suppresses():
    state = DampingState(DampingConfig())
    assert not state.record_withdrawal(now=0.0)  # 1000 < 2000
    assert not state.record_withdrawal(now=0.1)  # ~1955, still below cut
    assert state.record_withdrawal(now=0.2)      # ~2900 -> suppressed
    assert state.suppressed


def test_penalty_decays_exponentially():
    config = DampingConfig(half_life=10.0)
    state = DampingState(config)
    state.record_withdrawal(now=0.0)
    assert state.current_penalty(10.0) == pytest.approx(500.0, rel=1e-6)
    assert state.current_penalty(20.0) == pytest.approx(250.0, rel=1e-6)


def test_penalty_capped():
    config = DampingConfig(half_life=1000.0)
    state = DampingState(config)
    for i in range(50):
        state.record_withdrawal(now=i * 0.001)
    assert state.penalty <= config.max_penalty


def test_reuse_after_decay():
    config = DampingConfig(half_life=1.0)
    state = DampingState(config)
    state.record_withdrawal(now=0.0)
    state.record_withdrawal(now=0.0)
    state.record_withdrawal(now=0.0)
    assert state.suppressed
    assert not state.maybe_reuse(now=0.5)
    eta = state.time_until_reuse(now=0.0)
    assert eta is not None and eta > 0
    assert state.maybe_reuse(now=eta + 0.01)
    assert not state.suppressed
    assert state.time_until_reuse(now=eta + 0.01) is None


def test_reuse_delay_formula():
    config = DampingConfig(half_life=10.0)
    # Penalty 3000 decaying to 750 takes two half-lives = 20 s.
    assert config.reuse_delay(3000.0) == pytest.approx(20.0, rel=1e-6)
    assert config.reuse_delay(100.0) == 0.0


def test_readvertisement_penalty_smaller():
    config = DampingConfig()
    state = DampingState(config)
    state.record_readvertisement(now=0.0)
    assert state.penalty == pytest.approx(500.0)


# ---------------------------------------------------------------------------
# Speaker integration
# ---------------------------------------------------------------------------
def damped_network(topo, half_life=2.0, seed=1, damping=None):
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        damping=damping or DampingConfig(half_life=half_life),
    )
    net = BGPNetwork(topo, config, seed=seed)
    net.start()
    net.run_until_quiet()
    return net


def test_initial_advertisements_carry_no_penalty():
    net = damped_network(line_topology(4))
    for speaker in net.speakers.values():
        assert not speaker._damping  # no flaps during clean warm-up
        assert speaker.loc_rib.destinations() == {0, 1, 2, 3}


def test_flapping_route_gets_suppressed_and_reused():
    # Aggressive thresholds so a single withdrawal suppresses: in this
    # deterministic zero-service clique, exploration flaps each slot only
    # once or twice.
    net = damped_network(
        clique_topology(5),
        damping=DampingConfig(
            half_life=1.0, cut_threshold=900.0, reuse_threshold=400.0
        ),
    )
    snapshot = net.counters.snapshot()
    net.fail_nodes([4])
    net.run_until_quiet()
    diff = net.counters.diff(snapshot)
    assert diff.get("routes_suppressed", 0) > 0
    # The reuse timers reinstate what was suppressed.
    assert diff.get("routes_reused", 0) > 0
    # Network still converges to a correct state afterwards.
    validate_routing(net)


def test_damping_network_converges_and_validates_under_large_failure():
    topo = skewed_topology(36, seed=4)
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        damping=DampingConfig(half_life=2.0),
    )
    net = BGPNetwork(topo, config, seed=1)
    net.start()
    net.run_until_quiet(max_time=3600)
    snapshot = net.counters.snapshot()
    victims = topo.nodes_by_distance(500, 500)[:7]
    net.fail_nodes(victims)
    net.run_until_quiet(max_time=7200)
    assert net.is_quiescent()
    validate_routing(net)
    diff = net.counters.diff(snapshot)
    # Exploration triggered damping...
    assert diff.get("routes_suppressed", 0) > 0
    # ...and every suppressed-but-needed route was eventually reused
    # (validate_routing would have failed otherwise).


def test_damping_lengthens_convergence_after_single_event():
    """The Mao et al. pathology: damping penalizes path exploration."""

    def delay(with_damping):
        topo = skewed_topology(36, seed=4)
        config = BGPConfig(
            mrai_policy=ConstantMRAI(0.5),
            damping=DampingConfig(half_life=4.0) if with_damping else None,
        )
        net = BGPNetwork(topo, config, seed=1)
        net.start()
        net.run_until_quiet(max_time=3600)
        t0 = net.fail_nodes(topo.nodes_by_distance(500, 500)[:7])
        net.run_until_quiet(max_time=7200)
        return net.last_activity - t0

    assert delay(True) > delay(False)


def test_suppressed_route_not_selected():
    net = damped_network(line_topology(3))
    speaker = net.speakers[0]
    from repro.bgp.damping import DampingState as DS

    state = DS(net.config.damping)
    state.record_withdrawal(0.0)
    state.record_withdrawal(0.0)
    state.record_withdrawal(0.0)
    assert state.suppressed
    speaker._damping[2] = {1: state}
    speaker._reselect(2)
    # Destination 2 was only reachable via peer 1 -> now unselected.
    assert speaker.best_route(2) is None
