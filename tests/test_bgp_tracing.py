"""Tests for protocol tracing integration."""

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.sim.timers import Jitter
from repro.sim.trace import Tracer
from tests.conftest import line_topology


def traced_network():
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    tracer = Tracer()
    net = BGPNetwork(line_topology(3), config, seed=1, tracer=tracer)
    return net, tracer


def sends(tracer):
    """The payloads of the traced sends, one per UPDATE on the wire."""
    return [
        r.detail[5]
        for r in tracer.records
        if r.category == "causality" and r.detail[0] == "send"
    ]


def test_trace_records_protocol_events():
    net, tracer = traced_network()
    net.start()
    net.run_until_quiet()
    categories = {r.category for r in tracer.records}
    assert categories == {"causality", "route_change"}
    # Trace counts agree with counters.
    assert len(sends(tracer)) == net.counters["updates_sent"]


def test_trace_records_failures_and_withdrawals():
    net, tracer = traced_network()
    net.start()
    net.run_until_quiet()
    tracer.records.clear()
    net.fail_nodes([2])
    net.run_until_quiet()
    roots = [
        r.detail
        for r in tracer.records
        if r.category == "causality" and r.detail[0] == "failure"
    ]
    assert len(roots) == 1 and roots[0][5] == (2,)
    assert None in sends(tracer)  # a withdrawal


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
