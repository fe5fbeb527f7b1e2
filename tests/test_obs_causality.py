"""Tests for causal update tracing and the CausalGraph builder."""

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.obs.causality import CausalGraph
from repro.sim.timers import Jitter
from repro.sim.trace import JsonlSink, Tracer, load_trace
from tests.conftest import clique_topology, line_topology


def traced_run(topology, fail_node, mrai=0.5):
    """Warm up, fail one node, run to quiescence; return (net, tracer, t0)."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(mrai),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    tracer = Tracer()
    net = BGPNetwork(topology, config, seed=1, tracer=tracer)
    net.start()
    net.run_until_quiet()
    t0 = net.fail_nodes([fail_node])
    net.run_until_quiet()
    return net, tracer, t0


def test_line_failure_has_single_failure_root():
    net, tracer, t0 = traced_run(line_topology(4), 3)
    graph = CausalGraph.from_records(tracer.records)
    roots = graph.failure_roots
    assert len(roots) == 1
    root = roots[0]
    assert root.kind == "failure"
    assert root.payload == (3,)
    assert root.time == t0
    # Every update sent after the failure chains back to that root.
    post = [e for e in graph.sends if e.time >= t0]
    assert post, "the failure must generate traffic"
    for event in post:
        assert graph.chain(event.uid)[0].uid == root.uid
    assert graph.cascade_size(root.uid) == len(post)


def test_line_warmup_roots_are_originations():
    net, tracer, _ = traced_run(line_topology(4), 3)
    graph = CausalGraph.from_records(tracer.records)
    # Line 0-1-2-3: origination sends 1+2+2+1 = 6, plus the failure root.
    origination_roots = [r for r in graph.roots if r.kind == "send"]
    assert len(origination_roots) == 6
    assert all(r.cause_uid == -1 for r in origination_roots)
    assert len(graph.roots) == 7


def test_clique_failure_cascade_matches_message_count():
    net, tracer, t0 = traced_run(clique_topology(4), 0)
    graph = CausalGraph.from_records(tracer.records)
    assert len(graph.failure_roots) == 1
    root = graph.failure_roots[0]
    assert root.payload == (0,)
    post = [e for e in graph.sends if e.time >= t0]
    assert graph.cascade_size(root.uid) == len(post) == 15
    # The whole trace agrees with the legacy counter.
    assert len(graph.sends) == net.counters["updates_sent"]


def test_uids_are_unique_and_monotonic():
    net, tracer, _ = traced_run(clique_topology(4), 0)
    uids = [
        r.detail[1] for r in tracer.records if r.category == "causality"
    ]
    assert uids == sorted(uids)
    assert len(uids) == len(set(uids))


def test_causes_always_precede_effects():
    net, tracer, _ = traced_run(clique_topology(5), 0)
    graph = CausalGraph.from_records(tracer.records)
    for event in graph.events.values():
        if event.cause_uid in graph.events:
            assert event.cause_uid < event.uid
            assert graph.events[event.cause_uid].time <= event.time


def test_depths_and_histograms():
    net, tracer, _ = traced_run(clique_topology(4), 0)
    graph = CausalGraph.from_records(tracer.records)
    depths = graph.depths()
    assert all(depths[r.uid] == 0 for r in graph.roots)
    histogram = graph.depth_histogram()
    assert sum(histogram.values()) == len(graph.events)
    assert max(histogram) == graph.summary()["max_chain_depth"]
    width = graph.width_histogram()
    assert sum(width.values()) == len(graph.events)
    # Edge count consistency: every non-root contributes one edge.
    edges = sum(count * w for w, count in width.items())
    assert edges == len(graph.events) - len(graph.roots)


def test_longest_chain_is_rooted_and_ordered():
    net, tracer, t0 = traced_run(clique_topology(5), 0)
    graph = CausalGraph.from_records(tracer.records)
    chains = graph.longest_chains(2)
    assert len(chains) == 2
    deepest = chains[0]
    assert len(deepest) - 1 == graph.summary()["max_chain_depth"]
    assert deepest[0].cause_uid == -1
    for parent, child in zip(deepest, deepest[1:]):
        assert child.cause_uid == parent.uid


def test_wasted_updates_counts_superseded_sends():
    net, tracer, _ = traced_run(clique_topology(4), 0)
    graph = CausalGraph.from_records(tracer.records)
    wasted = graph.wasted_updates()
    sends = graph.sends
    final = len(
        {(e.node, e.peer, e.dest) for e in sends}
    )
    assert sum(wasted.values()) == len(sends) - final


def test_amplification_identifies_fanout():
    net, tracer, _ = traced_run(clique_topology(4), 0)
    graph = CausalGraph.from_records(tracer.records)
    factors = graph.amplification()
    assert set(factors) <= {0, 1, 2, 3}
    assert all(f >= 1.0 for f in factors.values())
    top = graph.top_amplifiers(2)
    assert len(top) == 2
    assert top[0][1] >= top[1][1]


def test_jsonl_round_trip_preserves_the_graph(tmp_path):
    path = tmp_path / "trace.jsonl"
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    with JsonlSink(path) as sink:
        tracer = Tracer(sink=sink)
        net = BGPNetwork(clique_topology(4), config, seed=1, tracer=tracer)
        net.start()
        net.run_until_quiet()
        net.fail_nodes([0])
        net.run_until_quiet()
    in_memory = CausalGraph.from_records(tracer.records)
    from_file = CausalGraph.from_records(load_trace(path))
    assert from_file.summary() == in_memory.summary()
    # AS paths survived the JSON round trip as tuples.
    sample = max(from_file.sends, key=lambda e: e.uid)
    twin = in_memory.events[sample.uid]
    assert sample.payload == twin.payload


def test_load_trace_rejects_truncated_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(
        '{"time": 1.0, "category": "causality", "node": null, '
        '"detail": ["failure", 1, -1, null, null, [2]]}\n{"time": 2.'
    )
    with pytest.raises(ValueError, match="malformed"):
        load_trace(path)


def test_untraced_messages_carry_no_uids():
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    seen = []
    net = BGPNetwork(line_topology(3), config, seed=1)
    original = net.transmit

    def spy(sender_id, receiver_id, msg, delay):
        seen.append((msg.uid, msg.cause_uid))
        original(sender_id, receiver_id, msg, delay)

    net.transmit = spy
    net.start()
    net.run_until_quiet()
    assert seen
    assert all(pair == (-1, -1) for pair in seen)
    assert net._next_uid == 0
