"""A quiescent network survives a copy.

Everything before ``fail_nodes`` is a function of the topology, the seed
and the spec, so a warmed-up network can be pickled once and failed many
times.  That holds only if a restored copy behaves exactly as the network
it was copied from: these tests warm up, copy through ``pickle``, fail the
copy, and compare it with the uninterrupted run.
"""

import pickle

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.queues import QUEUES
from repro.bgp.speaker import _NEVER_SENT
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec, build_scenario
from repro.topology.skewed import skewed_topology

TOPOLOGY = skewed_topology(30, seed=1)

MRAIS = {
    "constant": lambda: ConstantMRAI(0.5),
    "degree": lambda: DegreeDependentMRAI(0.5, 2.0, degree_threshold=5),
    "dynamic": lambda: DynamicMRAI(),
}


def test_the_never_sent_mark_pickles_to_itself():
    assert pickle.loads(pickle.dumps(_NEVER_SENT)) is _NEVER_SENT


@pytest.mark.parametrize("queue", sorted(QUEUES))
@pytest.mark.parametrize("mrai", sorted(MRAIS))
def test_failing_a_copy_of_a_quiescent_network_is_failing_the_network(
    mrai, queue
):
    def run(copy):
        spec = ExperimentSpec(
            mrai=MRAIS[mrai](), queue_discipline=queue, failure_fraction=0.2
        )
        network = BGPNetwork(TOPOLOGY, spec.to_bgp_config(), seed=1)
        network.start()
        network.run_until_quiet()
        assert network.is_quiescent()
        if copy:
            network = pickle.loads(pickle.dumps(network))
        network.fail_nodes(build_scenario(TOPOLOGY, spec, 1).nodes)
        network.run_until_quiet()
        return network.counters.snapshot(), network.last_activity

    assert run(copy=True) == run(copy=False)
