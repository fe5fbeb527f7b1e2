"""Golden regression pins.

Fixed-seed experiments must keep producing the *same semantic outcomes*
(route tables and message categories) run after run.  These tests pin the
deterministic structure — not floating-point timings, which are allowed
to drift if e.g. the RNG consumption order legitimately changes, but only
together with a conscious update here.
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.sim.timers import Jitter
from repro.topology.skewed import skewed_topology
from tests.conftest import clique_topology, total_loc_rib_routes


def test_golden_deterministic_protocol_outcome():
    """Zero-service, unjittered 5-clique: fully deterministic counters."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(1.0),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    net = BGPNetwork(clique_topology(5), config, seed=1)
    net.start()
    net.run_until_quiet()
    # Warm-up of a 5-clique: every node advertises its own prefix to its
    # 4 peers (20 messages), and every learner re-advertises each learned
    # prefix to the 3 peers that are not on the path (5 dests x 4
    # learners x 3 = 60).  Those backup paths lose to the direct route,
    # so no further churn: exactly 80 updates.
    assert net.counters["updates_sent"] == 80
    assert net.counters["route_changes"] == 25
    assert total_loc_rib_routes(net) == 25


def test_golden_experiment_is_stable_within_session():
    """The same (topology, spec, seed) triple returns identical results."""
    topo = skewed_topology(30, seed=7)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    first = run_experiment(topo, spec, seed=3)
    second = run_experiment(topo, spec, seed=3)
    assert first == second


def test_golden_topology_structure_pins():
    """The default 120-node 70-30 topology at seed 3 (used throughout the
    calibration work) keeps its exact structure."""
    topo = skewed_topology(120, seed=3)
    assert topo.num_routers == 120
    assert topo.num_links == 235
    assert topo.degree_histogram() == {1: 21, 2: 28, 3: 35, 8: 36}


def test_golden_labovitz_exactness():
    """The clique bound must stay *exact*, not merely approximate."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(1.0),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
        withdrawal_rate_limiting=True,
    )
    net = BGPNetwork(clique_topology(6), config, seed=1)
    net.start()
    net.run_until_quiet()
    t0 = net.fail_nodes([0])
    net.run_until_quiet()
    # (n-3) x MRAI = 3.0 plus link/notification skew below 100 ms.
    assert net.last_activity - t0 == pytest.approx(3.0, abs=0.1)
