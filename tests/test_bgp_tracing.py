"""Tests for protocol tracing integration."""

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.sim.timers import Jitter
from repro.sim.trace import Tracer
from tests.conftest import line_topology


def traced_network(categories=None):
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    tracer = Tracer(categories=categories)
    net = BGPNetwork(line_topology(3), config, seed=1, tracer=tracer)
    return net, tracer


def test_trace_records_protocol_events():
    net, tracer = traced_network()
    net.start()
    net.run_until_quiet()
    categories = {r.category for r in tracer.records}
    assert "update_sent" in categories
    assert "route_change" in categories
    # Trace counts agree with counters.
    sent_traced = sum(
        1
        for r in tracer.records
        if r.category in ("update_sent", "withdraw_sent")
    )
    assert sent_traced == net.counters["updates_sent"]


def test_trace_records_failures_and_withdrawals():
    net, tracer = traced_network()
    net.start()
    net.run_until_quiet()
    tracer.records.clear()
    net.fail_nodes([2])
    net.run_until_quiet()
    categories = {r.category for r in tracer.records}
    assert "peer_down" in categories
    assert "withdraw_sent" in categories


def test_trace_category_filtering_at_source():
    net, tracer = traced_network(categories={"peer_down"})
    net.start()
    net.run_until_quiet()
    assert len(tracer.records) == 0
    net.fail_nodes([2])
    net.run_until_quiet()
    assert all(r.category == "peer_down" for r in tracer.records)
    assert len(tracer.records) == 1


def test_default_null_tracer_records_nothing():
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    net = BGPNetwork(line_topology(3), config, seed=1)
    net.start()
    net.run_until_quiet()
    assert len(net.sim.tracer.records) == 0


def test_tracing_does_not_change_outcomes():
    def outcome(tracer):
        config = BGPConfig(
            mrai_policy=ConstantMRAI(0.5),
            processing_delay_range=(0.0, 0.0),
            mrai_jitter=Jitter(1.0, 1.0),
        )
        net = BGPNetwork(line_topology(4), config, seed=1, tracer=tracer)
        net.start()
        net.run_until_quiet()
        net.fail_nodes([3])
        net.run_until_quiet()
        return net.counters.snapshot(), net.last_activity

    assert outcome(None) == outcome(Tracer())
