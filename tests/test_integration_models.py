"""Integration checks against the analytic models cited by the paper.

Labovitz et al. [5] showed that after a route withdrawal in a complete
graph of n nodes, BGP with per-peer rate limiting converges in at best
(n-3) x MRAI: each MRAI round retires one path length of stale backups.
Our simulator reproduces that bound *exactly* when withdrawals are subject
to the MRAI (the configuration Labovitz modeled).  With RFC-1771's
immediate withdrawals the cascade prunes stale paths at wire speed — the
very reason the RFC exempts withdrawals from the MRAI.

Griffin & Premore [7] showed delay grows linearly in the MRAI above the
optimum; that shape must emerge too.
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.sim.timers import Jitter
from tests.conftest import clique_topology


def clique_withdrawal_delay(
    n: int, mrai: float, rate_limit_withdrawals: bool, seed: int = 1
) -> float:
    """Convergence delay after the origin dies in a clique of n nodes.

    Deterministic setup: zero processing delay, unjittered timers.
    """
    config = BGPConfig(
        mrai_policy=ConstantMRAI(mrai),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        withdrawal_rate_limiting=rate_limit_withdrawals,
    )
    net = BGPNetwork(clique_topology(n), config, seed=seed)
    net.start()
    net.run_until_quiet()
    t0 = net.fail_nodes([0])
    net.run_until_quiet()
    for speaker in net.alive_speakers():
        assert 0 not in speaker.loc_rib.destinations()
    return net.last_activity - t0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_labovitz_clique_bound_exact(n):
    """(n-3) x MRAI with rate-limited withdrawals, to within link delays."""
    mrai = 1.0
    delay = clique_withdrawal_delay(n, mrai, rate_limit_withdrawals=True)
    assert delay == pytest.approx((n - 3) * mrai, abs=0.1)


def test_labovitz_bound_scales_with_mrai():
    """Doubling the MRAI doubles the exploration time (linear regime)."""
    base = clique_withdrawal_delay(6, 1.0, rate_limit_withdrawals=True)
    double = clique_withdrawal_delay(6, 2.0, rate_limit_withdrawals=True)
    assert double == pytest.approx(2.0 * base, rel=0.05)


def test_immediate_withdrawals_collapse_exploration():
    """The RFC's MRAI exemption for withdrawals kills the (n-3) rounds:
    bad news travels at wire speed and stale paths are pruned before any
    MRAI-pending advertisement flushes."""
    limited = clique_withdrawal_delay(8, 1.0, rate_limit_withdrawals=True)
    immediate = clique_withdrawal_delay(8, 1.0, rate_limit_withdrawals=False)
    assert immediate < 0.2
    assert limited > 10 * immediate


def test_clique_exploration_generates_many_messages():
    """Path exploration, not just the withdrawal wave, drives messages."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(1.0),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        withdrawal_rate_limiting=True,
    )
    net = BGPNetwork(clique_topology(7), config, seed=1)
    net.start()
    net.run_until_quiet()
    snapshot = net.counters.snapshot()
    net.fail_nodes([0])
    net.run_until_quiet()
    diff = net.counters.diff(snapshot)
    survivors = 6
    # One clean withdrawal per session would be survivors*(survivors-1)
    # messages; exploration sends strictly more.
    assert diff["updates_sent"] > survivors * (survivors - 1)
