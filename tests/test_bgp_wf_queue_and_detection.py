"""Tests for the withdrawal-first queue and hold-timer failure detection."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.messages import Update
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.queues import WithdrawalFirstBatchQueue, make_queue
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.validation import validate_routing
from repro.topology.skewed import skewed_topology
from tests.conftest import converged_network, line_topology


def msg(dest, sender, path=(1,)):
    return Update(dest, path, sender)


def wd(dest, sender):
    return Update(dest, None, sender)


# ---------------------------------------------------------------------------
# Withdrawal-first batching
# ---------------------------------------------------------------------------
def test_wf_serves_withdrawal_destination_first():
    q = WithdrawalFirstBatchQueue(8)
    q.push(msg(1, 10))
    q.push(msg(2, 10))
    q.push(wd(3, 10))
    batch, __ = q.pop_batch()
    assert batch[0].dest == 3
    assert batch[0].is_withdrawal
    # Then falls back to arrival order.
    assert q.pop_batch()[0][0].dest == 1
    assert q.pop_batch()[0][0].dest == 2


def test_wf_withdrawal_promotes_existing_destination():
    q = WithdrawalFirstBatchQueue(8)
    q.push(msg(1, 10))
    q.push(msg(2, 10))
    q.push(wd(2, 11))
    batch, __ = q.pop_batch()
    assert {m.dest for m in batch} == {2}
    assert len(batch) == 2  # announcement from 10 and withdrawal from 11


def test_wf_urgent_order_is_fifo_among_withdrawals():
    q = WithdrawalFirstBatchQueue(8)
    q.push(wd(5, 1))
    q.push(wd(3, 1))
    assert q.pop_batch()[0][0].dest == 5
    assert q.pop_batch()[0][0].dest == 3


def test_wf_stale_withdrawal_entry_skipped_after_normal_service():
    q = WithdrawalFirstBatchQueue(8)
    q.push(wd(1, 10))
    q.pop_batch()  # dest 1 served via urgent path
    q.push(msg(2, 10))
    batch, __ = q.pop_batch()  # must not crash on the stale urgent entry
    assert batch[0].dest == 2


def test_wf_same_neighbor_coalescing_still_applies():
    q = WithdrawalFirstBatchQueue(8)
    q.push(msg(1, 10, path=(5,)))
    q.push(wd(1, 10))
    batch, dropped = q.pop_batch()
    assert dropped == 1
    assert batch[0].is_withdrawal


def test_wf_factory_and_config():
    assert isinstance(make_queue("dest_batch_wf", 8), WithdrawalFirstBatchQueue)
    BGPConfig(queue_discipline="dest_batch_wf")  # accepted


def test_wf_end_to_end_converges_and_validates():
    topo = skewed_topology(36, seed=4)
    result = run_experiment(
        topo,
        ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            queue_discipline="dest_batch_wf",
            failure_fraction=0.2,
            validate=True,
        ),
        seed=1,
    )
    assert not result.truncated
    assert result.stale_dropped > 0


def test_wf_competitive_with_plain_batching_under_overload():
    topo = skewed_topology(60, seed=3)
    plain = run_experiment(
        topo,
        ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            queue_discipline="dest_batch",
            failure_fraction=0.2,
        ),
        seed=1,
    )
    wf = run_experiment(
        topo,
        ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            queue_discipline="dest_batch_wf",
            failure_fraction=0.2,
        ),
        seed=1,
    )
    # Both fix the meltdown; withdrawal-first must be in the same class.
    assert wf.convergence_delay <= plain.convergence_delay * 1.5


# ---------------------------------------------------------------------------
# Hold-timer failure detection
# ---------------------------------------------------------------------------
def test_detection_delay_shifts_convergence():
    def delay_with(detection):
        net = converged_network(line_topology(4))
        t0 = net.fail_nodes([3], detection_delay=detection)
        net.run_until_quiet()
        return net.last_activity - t0

    instant = delay_with(0.0)
    held = delay_with(3.0)
    assert held == pytest.approx(instant + 3.0, abs=0.2)


def test_detection_jitter_staggers_neighbors():
    net = converged_network(skewed_topology(30, seed=2))
    t0 = net.fail_nodes(
        net.topology.nodes_by_distance(500, 500)[:3],
        detection_delay=1.0,
        detection_jitter=2.0,
    )
    net.run_until_quiet()
    validate_routing(net)
    assert net.last_activity - t0 >= 1.0


def test_detection_delay_validation():
    net = converged_network(line_topology(3))
    with pytest.raises(ValueError):
        net.fail_nodes([2], detection_delay=-1.0)
    with pytest.raises(ValueError):
        net.fail_nodes([2], detection_jitter=-1.0)


def test_delayed_detection_still_converges_correctly():
    net = converged_network(skewed_topology(30, seed=2))
    net.fail_nodes(
        net.topology.nodes_by_distance(500, 500)[:5], detection_delay=2.0
    )
    net.run_until_quiet()
    validate_routing(net)
