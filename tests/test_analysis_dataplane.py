"""DataPlaneTimeline analytics, trace-file splitting, report CLI."""

import json

import pytest

from repro.analysis.dataplane import (
    DataPlaneTimeline,
    analyze_dataplane_file,
    render_dataplane_report,
)
from repro.sim.trace import JsonlSink, TraceRecord


def _timeline(transitions, t0=0.0, end=None):
    return DataPlaneTimeline.from_transitions(transitions, t0=t0, end=end)


# ----------------------------------------------------------------------
# Timeline construction and windowing
# ----------------------------------------------------------------------
def test_segments_clip_to_window():
    tl = _timeline(
        [
            (0.0, 1, 9, "ok", 2),
            (5.0, 1, 9, "blackhole", None),
            (8.0, 1, 9, "ok", 3),
        ],
        t0=4.0,
        end=10.0,
    )
    # Segments ok [4, 5) at 2 hops, blackhole [5, 8), ok [8, 10] at 3.
    (pair,) = tl.pair_stats()
    assert pair.blackhole_seconds == pytest.approx(3.0)
    assert pair.max_ok_hops == 3
    assert (pair.final_status, pair.final_hops) == ("ok", 3)
    head = tl.headline()
    assert head["unreachable_seconds_total"] == pytest.approx(3.0)
    assert head["blackhole_episodes"] == 1
    assert head["loop_episodes"] == 0
    assert head["window_seconds"] == pytest.approx(6.0)
    # Worst transient ok path was 3 hops; it settles at 3: stretch 1.0...
    assert head["stretch_max"] == pytest.approx(1.0)


def test_pre_window_transitions_establish_initial_state():
    tl = _timeline(
        [(1.0, 1, 9, "loop", None), (6.0, 1, 9, "ok", 1)],
        t0=5.0,
        end=7.0,
    )
    # Segments loop [5, 6), ok [6, 7] at 1 hop: the loop since 1.0 is
    # clipped to the window.
    (pair,) = tl.pair_stats()
    assert pair.loop_seconds == pytest.approx(1.0)
    assert (pair.final_status, pair.final_hops) == ("ok", 1)
    assert tl.headline()["loop_episodes"] == 1


def test_adjacent_same_status_segments_merge_into_one_episode():
    # hops changes within ok, and two distinct blackhole stints.
    tl = _timeline(
        [
            (0.0, 1, 9, "ok", 2),
            (1.0, 1, 9, "ok", 4),
            (2.0, 1, 9, "blackhole", None),
            (3.0, 1, 9, "ok", 2),
            (4.0, 1, 9, "blackhole", None),
            (5.0, 1, 9, "ok", 2),
        ],
        t0=0.0,
        end=6.0,
    )
    head = tl.headline()
    assert head["blackhole_episodes"] == 2
    assert head["blackhole_seconds"] == pytest.approx(2.0)
    assert head["stretch_max"] == pytest.approx(2.0)  # 4 hops vs final 2


def test_down_time_excluded_from_unreachability():
    tl = _timeline(
        [
            (0.0, 1, 9, "ok", 1),
            (2.0, 1, 9, "down", None),
        ],
        t0=0.0,
        end=10.0,
    )
    head = tl.headline()
    assert head["unreachable_seconds_total"] == 0.0
    assert head["down_seconds"] == pytest.approx(8.0)
    assert head["pairs_never_recovered"] == 0


def test_never_recovered_and_destination_percentiles():
    transitions = [(0.0, n, 9, "blackhole", None) for n in (1, 2, 3)]
    transitions += [(0.0, n, 8, "ok", 1) for n in (1, 2, 3)]
    transitions += [(2.0, 1, 8, "blackhole", None), (3.0, 1, 8, "ok", 1)]
    tl = _timeline(transitions, t0=0.0, end=4.0)
    head = tl.headline()
    assert head["pairs_never_recovered"] == 3
    assert head["destinations"] == 2
    per_dest = tl.destination_unreachability()
    assert per_dest[9] == pytest.approx(12.0)  # 3 nodes x 4 s
    assert per_dest[8] == pytest.approx(1.0)
    assert head["unreachable_dest_max"] == pytest.approx(12.0)
    worst = tl.worst_destinations(1)
    assert worst == [{"dest": 9, "unreachable_seconds": 12.0}]


# ----------------------------------------------------------------------
# Trace-file splitting + file-level analysis
# ----------------------------------------------------------------------
def _write_sink(path, trials, interleave=()):
    """One ``(seed, t0, end)`` delimiter and its transitions per trial,
    each trial after the ``interleave`` records (another category)."""
    with JsonlSink(path) as sink:
        for (seed, t0, end), transitions in trials:
            for record in interleave:
                sink(record)
            sink(TraceRecord(t0, "dataplane_trial", None, (seed, end)))
            for t, node, dest, status, hops in transitions:
                sink(TraceRecord(t, "dataplane", node, (dest, status, hops)))
    return path


def test_report_splits_trials_on_their_delimiters(tmp_path):
    trials = [
        ((1, 1.0, 3.0),
         [(1.0, 1, 9, "blackhole", None), (2.0, 1, 9, "ok", 1)]),
        ((2, 0.0, 2.0), [(0.0, 1, 9, "ok", 1)]),
    ]
    report = analyze_dataplane_file(_write_sink(tmp_path / "dp.jsonl", trials))
    assert [(t["trial"], t["seed"]) for t in report["per_trial"]] == [
        (0, 1),
        (1, 2),
    ]
    assert [t["transitions"] for t in report["per_trial"]] == [2, 1]
    # Trace records between the trials (a --dataplane --trace-out file)
    # change nothing.
    route_change = TraceRecord(0.5, "route_change", 1, (9, (1, 9)))
    mixed = _write_sink(tmp_path / "mixed.jsonl", trials, [route_change])
    assert analyze_dataplane_file(mixed) == dict(report, path=str(mixed))


def test_load_rejects_malformed_lines(tmp_path):
    # load_trace's contract and wording, whichever verb reads the file.
    cases = {
        "not json": "malformed trace line",
        "[1, 2]": "not a trace record",
        '{"a": 1}': "not a trace record",
        '{"time": 1.0, "category": "dataplane", "node": 1, '
        '"detail": [9, "ok", 1]}': "before any dataplane_trial",
        '{"time": 1.0, "category": "route_change", "node": 1, '
        '"detail": [9, [1, 9]]}': "no dataplane_trial record",
        '{"time": 0.0, "category": "dataplane_trial", "node": null, '
        '"detail": [1]}': r"detail \[1\], not detail \[seed, end\]",
        '{"time": 0.0, "category": "dataplane_trial", "node": null, '
        '"detail": ["1", 2.0]}': r"not detail \[seed, end\]",
    }
    for line, wording in cases.items():
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=wording):
            analyze_dataplane_file(bad)


@pytest.mark.parametrize(
    "node, detail",
    [
        (1, [9, "ok", [2]]),
        (1, [9, "ok"]),
        (1, ["9", "ok", 2]),
        (1, [9, "lost", 2]),
        (None, [9, "ok", 2]),
    ],
    ids=["list-hops", "short", "string-dest", "unknown-status", "no-node"],
)
def test_load_rejects_a_transition_of_the_wrong_shape(node, detail, tmp_path):
    bad = tmp_path / "bad.jsonl"
    with JsonlSink(bad) as sink:
        sink(TraceRecord(0.0, "dataplane_trial", None, (1, 2.0)))
        sink({"time": 1.0, "category": "dataplane", "node": node,
              "detail": detail})
    with pytest.raises(
        ValueError,
        match=r"a dataplane record at time 1 has node .*, not an integer "
        r"node and detail \[dest, status, hops\]",
    ):
        analyze_dataplane_file(bad)


def test_analyze_file_aggregate_and_render(tmp_path):
    path = _write_sink(
        tmp_path / "dp.jsonl",
        [
            ((1, 0.0, 4.0),
             [(0.0, 1, 9, "blackhole", None), (1.0, 1, 9, "ok", 1),
              (0.0, 2, 9, "ok", 1)]),
            ((2, 0.0, 4.0),
             [(0.0, 1, 9, "loop", None), (3.0, 1, 9, "ok", 2)]),
        ],
    )
    report = analyze_dataplane_file(path)
    assert report["trials"] == 2
    agg = report["aggregate"]
    assert agg["unreachable_seconds_total"] == pytest.approx(4.0)
    assert agg["unreachable_seconds_max"] == pytest.approx(3.0)
    assert agg["blackhole_episodes"] == 1
    assert agg["loop_episodes"] == 1
    text = render_dataplane_report(report)
    assert "data-plane impact report: 2 trial(s)" in text
    assert "trial 0 (seed 1)" in text
    assert "dest 9" in text
    # --t0 override narrows the window for every trial.
    narrowed = analyze_dataplane_file(path, t0=3.5)
    assert narrowed["aggregate"]["unreachable_seconds_total"] == 0.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_dataplane_report(tmp_path, capsys):
    from repro.cli import main

    path = _write_sink(
        tmp_path / "dp.jsonl",
        [((1, 0.0, 2.0),
          [(0.0, 1, 9, "blackhole", None), (1.0, 1, 9, "ok", 1)])],
    )
    out_path = tmp_path / "report.json"
    assert main(
        ["dataplane", "report", str(path), "--out", str(out_path)]
    ) == 0
    text = capsys.readouterr().out
    assert "data-plane impact report" in text
    saved = json.loads(out_path.read_text(encoding="utf-8"))
    assert saved["trials"] == 1

    assert main(["dataplane", "report", str(path), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["aggregate"]["unreachable_seconds_total"] == 1.0

    assert main(
        ["dataplane", "report", str(tmp_path / "missing.jsonl")]
    ) == 2
    assert "cannot analyze" in capsys.readouterr().err
