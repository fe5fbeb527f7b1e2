"""Coverage for cross-cutting behaviours not owned by one module's suite."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig
from repro.bgp.messages import Update
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.queues import WithdrawalFirstBatchQueue
from repro.cli import main
from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# Engine odds and ends
# ---------------------------------------------------------------------------
def test_pending_events_counts_live_only():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(event)
    assert sim.pending_events == 1


# ---------------------------------------------------------------------------
# Withdrawal-first queue: message conservation under random workloads
# ---------------------------------------------------------------------------
updates = st.lists(
    st.builds(
        Update,
        dest=st.integers(min_value=0, max_value=5),
        path=st.one_of(
            st.none(),
            st.lists(st.integers(min_value=0, max_value=9), max_size=3).map(
                tuple
            ),
        ),
        sender=st.integers(min_value=0, max_value=4),
    ),
    max_size=60,
)


@given(updates)
def test_wf_queue_conserves_messages(messages):
    q = WithdrawalFirstBatchQueue(6)
    for m in messages:
        q.push(m)
    drained = 0
    dropped = 0
    while len(q):
        batch, d = q.pop_batch()
        drained += len(batch)
        dropped += d
        assert len({m.dest for m in batch}) == 1
        assert len({m.sender for m in batch}) == len(batch)
    assert drained + dropped == len(messages)


@given(updates)
def test_wf_queue_withdrawal_destinations_served_no_later(messages):
    """Any destination with a queued withdrawal is served before any
    destination without one (among those present at the same time)."""
    q = WithdrawalFirstBatchQueue(6)
    for m in messages:
        q.push(m)
    has_withdrawal = {
        m.dest for m in messages if m.is_withdrawal
    }
    service_order = []
    while len(q):
        batch, __ = q.pop_batch()
        service_order.append(batch[0].dest)
    urgent_positions = [
        i for i, d in enumerate(service_order) if d in has_withdrawal
    ]
    normal_positions = [
        i for i, d in enumerate(service_order) if d not in has_withdrawal
    ]
    if urgent_positions and normal_positions:
        assert max(urgent_positions) < min(normal_positions) + len(
            urgent_positions
        )


# ---------------------------------------------------------------------------
# CLI: export and list paths
# ---------------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out
    assert "ab_flap_damping" in out


def test_cli_run_new_schemes(capsys):
    assert (
        main(
            [
                "run",
                "--nodes",
                "20",
                "--mrai-scheme",
                "theory",
                "--failure",
                "0.1",
            ]
        )
        == 0
    )
    assert "convergence delay" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Config cross-validation
# ---------------------------------------------------------------------------
def test_config_accepts_all_queue_disciplines():
    for discipline in ("fifo", "dest_batch", "dest_batch_wf", "tcp_batch"):
        BGPConfig(queue_discipline=discipline)


def test_experiment_spec_detection_validation():
    from repro.core.experiment import ExperimentSpec

    with pytest.raises(ValueError):
        ExperimentSpec(detection_delay=-1.0)
    with pytest.raises(ValueError):
        ExperimentSpec(detection_jitter=-0.5)


def test_experiment_spec_detection_delay_applied():
    from repro.core.experiment import ExperimentSpec, run_experiment
    from repro.topology.skewed import skewed_topology

    topo = skewed_topology(20, seed=1)
    fast = run_experiment(
        topo, ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1), seed=1
    )
    slow = run_experiment(
        topo,
        ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            failure_fraction=0.1,
            detection_delay=5.0,
        ),
        seed=1,
    )
    assert slow.convergence_delay > fast.convergence_delay + 4.0
