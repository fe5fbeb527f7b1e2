"""Unit tests for tracing and counters."""

import json

from repro.sim.trace import (
    Counter,
    JsonlSink,
    NullTracer,
    Tracer,
    TraceRecord,
    load_trace,
)


def test_tracer_records_events():
    tracer = Tracer()
    tracer.emit(1.0, "update_sent", 3, "dest", 7)
    tracer.emit(2.0, "route_change", 4)
    assert len(tracer.records) == 2
    assert tracer.records[0] == TraceRecord(1.0, "update_sent", 3, ("dest", 7))


def test_sink_is_invoked():
    seen = []
    tracer = Tracer(sink=seen.append)
    tracer.emit(1.0, "x", None)
    assert len(seen) == 1


def test_max_records_sink_still_sees_everything():
    seen = []
    tracer = Tracer(sink=seen.append)
    for i in range(4):
        tracer.emit(float(i), "x", i)
    assert len(seen) == 4
    assert len(tracer.records) == 4


def test_max_records_unset_keeps_everything():
    tracer = Tracer()
    for i in range(100):
        tracer.emit(float(i), "x", i)
    assert len(tracer.records) == 100
    assert [r.node for r in tracer.records] == list(range(100))


def test_null_tracer_drops_everything():
    tracer = NullTracer()
    tracer.emit(1.0, "x", None)
    assert len(tracer.records) == 0
    assert not tracer.enabled


def test_record_str_contains_fields():
    record = TraceRecord(1.5, "update_sent", 3, ("a",))
    text = str(record)
    assert "update_sent" in text
    assert "node=3" in text


def test_counter_incr_and_get():
    counter = Counter()
    counter["a"] += 1
    counter["a"] += 2
    assert counter["a"] == 3
    assert counter["missing"] == 0
    assert "missing" not in counter  # reading a missing name creates nothing


def test_counter_snapshot_is_a_copy():
    counter = Counter()
    counter["a"] += 1
    snap = counter.snapshot()
    counter["a"] += 1
    assert snap == {"a": 1}
    assert counter["a"] == 2


def test_counter_diff():
    counter = Counter()
    counter["a"] += 5
    snap = counter.snapshot()
    counter["a"] += 3
    counter["b"] += 1
    assert counter.diff(snap) == {"a": 3, "b": 1}


def test_counter_reset():
    counter = Counter()
    counter["a"] += 1
    counter.clear()
    assert counter["a"] == 0


def test_record_to_dict_json_ready():
    record = TraceRecord(1.5, "update_sent", 3, ("a", (1, 2)))
    data = record.to_dict()
    assert data == {
        "time": 1.5,
        "category": "update_sent",
        "node": 3,
        "detail": ["a", [1, 2]],
    }
    json.dumps(data)  # nested tuples became lists; must serialize


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    plain = {"kind": "counter", "name": "updates_sent", "value": 3}
    with JsonlSink(path) as sink:
        tracer = Tracer(sink=sink)
        tracer.emit(1.0, "update_sent", 3, "dest", 7)
        tracer.emit(2.0, "route_change", 4)
        sink(plain)  # metrics records arrive as plain dicts
        assert sink.records_written == 3
    lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [r["category"] for r in rows[:2]] == ["update_sent", "route_change"]
    assert rows[0]["detail"] == ["dest", 7]
    assert lines[2] == json.dumps(plain, sort_keys=True)


def test_load_trace_returns_the_emitted_records(tmp_path):
    # Nested tuples went out as lists and come back as tuples.
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        tracer = Tracer(sink=sink)
        tracer.emit(1.0, "causality", 3, "send", 1, -1, 9, 4, (3, 9))
        tracer.emit(2.0, "route_change", 4, 9, None)
        tracer.emit(3.0, "dataplane_trial", None, 1, 5.0)
        tracer.emit(3.0, "dataplane", 4, 9, "ok", 2)
    assert load_trace(path) == tracer.records


def test_jsonl_sink_creates_parent_directories(tmp_path):
    path = tmp_path / "not" / "yet" / "there" / "trace.jsonl"
    with JsonlSink(path) as sink:
        Tracer(sink=sink).emit(1.0, "x", None)
    assert path.exists()


def test_jsonl_sink_close_idempotent(tmp_path):
    sink = JsonlSink(tmp_path / "x.jsonl")
    sink.close()
    sink.close()
