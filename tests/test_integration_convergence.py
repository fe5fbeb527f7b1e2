"""Integration tests: full convergence cycles on generated topologies.

Every test warms up a real network, injects a failure, runs to quiescence
and validates the resulting routing state against the path-vector
invariants — across generators, schemes and failure types.
"""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.validation import validate_routing
from repro.failures.scenarios import geographic_failure, random_failure
from repro.topology.internet import internet_like_topology
from repro.topology.multirouter import MultiRouterSpec, multi_router_topology
from repro.topology.skewed import skewed_topology
from repro.sim.rng import RandomStreams


def cycle(topology, config=None, fraction=0.1, seed=1, scenario=None):
    """Warm up, fail, reconverge, validate.  Returns the network."""
    net = BGPNetwork(
        topology,
        config or BGPConfig(mrai_policy=ConstantMRAI(0.5)),
        seed=seed,
    )
    net.start()
    net.run_until_quiet(max_time=3600)
    assert net.is_quiescent()
    validate_routing(net)
    if scenario is None:
        scenario = geographic_failure(topology, fraction)
    net.fail_nodes(scenario.nodes)
    net.run_until_quiet(max_time=3600)
    assert net.is_quiescent()
    validate_routing(net)
    return net


@pytest.mark.parametrize(
    "generator",
    [
        lambda: skewed_topology(40, seed=2),
        lambda: internet_like_topology(40, seed=2),
    ],
)
def test_failure_cycle_across_generators(generator):
    cycle(generator())


def test_failure_cycle_multirouter():
    topo = multi_router_topology(MultiRouterSpec(num_ases=12), seed=3)
    cycle(topo)


@pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5])
def test_failure_cycle_various_sizes(fraction):
    cycle(skewed_topology(40, seed=5), fraction=fraction)


def test_failure_cycle_random_scattered():
    topo = skewed_topology(40, seed=7)
    scenario = random_failure(topo, 0.15, RandomStreams(3).get("pick"))
    cycle(topo, scenario=scenario)


@pytest.mark.parametrize(
    "config",
    [
        BGPConfig(mrai_policy=ConstantMRAI(0.0)),
        BGPConfig(mrai_policy=ConstantMRAI(2.25)),
        BGPConfig(mrai_policy=DynamicMRAI()),
        BGPConfig(mrai_policy=ConstantMRAI(0.5), queue_discipline="dest_batch"),
        BGPConfig(mrai_policy=ConstantMRAI(0.5), queue_discipline="tcp_batch"),
        BGPConfig(mrai_policy=ConstantMRAI(0.5), per_destination_mrai=True),
        BGPConfig(mrai_policy=ConstantMRAI(0.5), withdrawal_rate_limiting=True),
        BGPConfig(
            mrai_policy=ConstantMRAI(0.5), sender_side_loop_detection=False
        ),
        BGPConfig(
            mrai_policy=DynamicMRAI(), queue_discipline="dest_batch"
        ),
        BGPConfig(
            mrai_policy=ConstantMRAI(0.5), processing_delay_range=(0.0, 0.0)
        ),
    ],
    ids=[
        "mrai0",
        "mrai2.25",
        "dynamic",
        "dest_batch",
        "tcp_batch",
        "per_dest_mrai",
        "wrate",
        "no_sender_side",
        "batch+dynamic",
        "no_processing",
    ],
)
def test_failure_cycle_across_configs(config):
    cycle(skewed_topology(36, seed=4), config=config)


def test_successive_failures():
    """Two failure waves, validating after each."""
    topo = skewed_topology(40, seed=9)
    net = cycle(topo, fraction=0.1)
    # Second wave hits another region.
    survivors = [n for n in topo.node_ids() if net.speakers[n].alive]
    second = set(survivors[:4])
    net.fail_nodes(second)
    net.run_until_quiet(max_time=3600)
    validate_routing(net)


def test_all_schemes_agree_on_final_reachability():
    """Routing outcomes (who reaches whom) are scheme-independent."""
    topo = skewed_topology(36, seed=11)
    outcomes = []
    for config in (
        BGPConfig(mrai_policy=ConstantMRAI(0.5)),
        BGPConfig(mrai_policy=ConstantMRAI(2.25)),
        BGPConfig(mrai_policy=DynamicMRAI()),
        BGPConfig(mrai_policy=ConstantMRAI(0.5), queue_discipline="dest_batch"),
    ):
        net = cycle(topo, config=config, fraction=0.15)
        outcomes.append(
            {
                n: frozenset(s.loc_rib.destinations())
                for n, s in net.speakers.items()
                if s.alive
            }
        )
    assert all(o == outcomes[0] for o in outcomes[1:])


def test_large_failure_half_the_network():
    cycle(skewed_topology(30, seed=13), fraction=0.5)
