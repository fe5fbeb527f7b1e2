"""End-to-end tests for the CLI observability flags."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


def run_cli(tmp_path, *extra):
    argv = [
        "run",
        "--nodes", "20",
        "--mrai", "0.5",
        "--failure", "0.1",
        "--seed", "1",
        *extra,
    ]
    return main(argv)


def test_metrics_out_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        tmp_path,
        "--metrics-out", str(out),
        "--sample-interval", "0.5",
        "--profile",
    )
    captured = capsys.readouterr()
    assert code == 0
    for name in (
        "manifest.json",
        "metrics.jsonl",
        "timeseries.csv",
        "aggregates.csv",
        "profile.txt",
    ):
        assert (out / name).exists(), name
        assert f"wrote {out / name}" in captured.err
    assert "event-loop profile" in captured.out
    assert "wall clock" in captured.out

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert [p["name"] for p in manifest["phases"]] == [
        "warmup", "failure", "convergence",
    ]
    assert manifest["seeds"] == [1]

    with (out / "timeseries.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1  # header + samples

    metric_names = {
        json.loads(line).get("name")
        for line in (out / "metrics.jsonl").read_text().splitlines()
    }
    assert "updates_processed" in metric_names
    assert "updates_sent" in metric_names


def test_profile_without_metrics_out(capsys):
    code = main(
        ["run", "--nodes", "20", "--failure", "0.1", "--seed", "1", "--profile"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "event-loop profile" in captured.out
    assert "wrote" not in captured.err


def test_run_without_obs_flags_writes_nothing(tmp_path, capsys):
    code = run_cli(tmp_path)
    captured = capsys.readouterr()
    assert code == 0
    assert "event-loop profile" not in captured.out
    assert "wrote" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_trace_out_writes_complete_jsonl(tmp_path, capsys):
    """--trace-out must close the sink before the command returns, so the
    final line is never truncated."""
    trace = tmp_path / "trace.jsonl"
    code = run_cli(tmp_path, "--trace-out", str(trace))
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {trace}" in captured.err
    assert "path exploration" in captured.out
    assert "settle times" in captured.out
    lines = trace.read_text().splitlines()
    assert lines
    for line in lines:  # every line parses: nothing was cut short
        json.loads(line)
    categories = {json.loads(line)["category"] for line in lines}
    assert categories == {"causality", "route_change"}


def test_trace_analyze_reports_on_cli_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert run_cli(tmp_path, "--trace-out", str(trace)) == 0
    capsys.readouterr()
    code = main(["trace", "analyze", str(trace)])
    captured = capsys.readouterr()
    assert code == 0
    assert "causal trace analysis" in captured.out
    assert "failure-injection" in captured.out
    assert "paths explored" in captured.out


def test_trace_analyze_json_and_report_out(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert run_cli(tmp_path, "--trace-out", str(trace)) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = main(
        ["trace", "analyze", str(trace), "--json", "--out", str(report_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    printed = json.loads(captured.out)
    saved = json.loads(report_path.read_text())
    assert printed == saved
    assert saved["causality"]["failure_roots"]
    assert saved["convergence"]["paths_explored_total"] >= 0


def test_trace_analyze_missing_file_fails_cleanly(tmp_path, capsys):
    code = main(["trace", "analyze", str(tmp_path / "nope.jsonl")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot analyze" in captured.err


@pytest.mark.parametrize(
    "line", ['{"a": 1}', "[1, 2]"], ids=["keyless-object", "list"]
)
def test_trace_analyze_refuses_a_line_that_is_no_trace_record(
    line, tmp_path, capsys
):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n", encoding="utf-8")
    assert main(["trace", "analyze", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot analyze {trace}: {trace}:1: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "line", ['{"a": 1}', "[1, 2]"], ids=["keyless-object", "list"]
)
def test_dataplane_report_refuses_a_line_that_is_no_trace_record(
    line, tmp_path, capsys
):
    # One loader, one wording: what trace analyze says of the line.
    path = tmp_path / "records.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["dataplane", "report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"cannot analyze {path}: {path}:1: not a trace record"
    )
    assert len(err.splitlines()) == 1


def test_manifest_spec_rebuilds_the_run(tmp_path, capsys):
    from repro.cli import build_topology, make_parser
    from repro.core.experiment import ExperimentSpec, run_experiment
    from repro.specs import build_mrai, build_spec, spec_to_dict

    out = tmp_path / "out"
    argv = ["run", "--nodes", "20", "--failure", "0.1", "--seed", "1"]
    assert main([*argv, "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    args = make_parser().parse_args(argv)
    topology = build_topology(args)
    spec = ExperimentSpec(
        mrai=build_mrai({"mrai": args.mrai}), failure_fraction=0.1
    )
    # The manifest's spec is the run's declarative dict (not a repr
    # string), and building it re-runs the very trial.
    assert manifest["spec"] == spec_to_dict(spec)
    rebuilt = build_spec(manifest["spec"])
    assert run_experiment(topology, rebuilt, seed=1) == run_experiment(
        topology, spec, seed=1
    )


def test_dataplane_report_refuses_a_transition_of_the_wrong_shape(
    tmp_path, capsys
):
    # A hops list where an int belongs must not reach the timeline
    # (a TypeError there): the shape is checked where records become
    # transitions.
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"time": 0.0, "category": "dataplane_trial", "node": null, '
        '"detail": [1, 2.0]}\n'
        '{"time": 1.0, "category": "dataplane", "node": 1, '
        '"detail": [9, "ok", [2]]}\n',
        encoding="utf-8",
    )
    assert main(["dataplane", "report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot analyze {path}: {path}: a dataplane record at time 1 has "
        'node 1 and detail [9, "ok", [2]], not an integer node and detail '
        "[dest, status, hops]"
    ]


@pytest.mark.parametrize(
    "detail",
    ["[0, [[1]]]", "[9]", '[0, "1 2"]', "[0, [1, 2.5]]"],
    ids=["nested-path", "no-path", "string-path", "float-asn"],
)
def test_trace_analyze_refuses_a_route_change_of_the_wrong_shape(
    detail, tmp_path, capsys
):
    # A nested list in the path must not reach the exploration count
    # (an unhashable TypeError there): the shape is checked on load.
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"category": "route_change", "detail": %s, "node": 0, '
        '"time": 0.0}\n' % detail,
        encoding="utf-8",
    )
    assert main(["trace", "analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot analyze {path}: {path}: a route_change record at time 0 "
        f"has node 0 and detail {detail}, not an integer node and detail "
        "[dest, null or [asn, ...]]"
    ]


@pytest.mark.parametrize(
    "node, detail",
    [
        ("0", '["send", [[1]], null, 0, 1, null]'),
        ("0", '[1, 2, null, 0, 1, null]'),
        ("0", '["send", 2, 1.5, 0, 1, null]'),
        ("0", '["send", 2, -1, 0, [1], null]'),
        ("null", '["send", 2, -1, 0, 1, null]'),
        ("0", '["send", 2, -1, 0, 1, 7]'),
        ("null", '["failure", 2, -1, null, null]'),
    ],
    ids=[
        "list-uid", "int-kind", "float-cause", "list-peer",
        "send-without-node", "int-payload", "five-fields",
    ],
)
def test_trace_analyze_refuses_a_causality_record_of_the_wrong_shape(
    node, detail, tmp_path, capsys
):
    # An unhashable uid must not reach the cause forest (a TypeError
    # there): the shape is checked on load.
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"category": "causality", "detail": %s, "node": %s, '
        '"time": 0.0}\n' % (detail, node),
        encoding="utf-8",
    )
    assert main(["trace", "analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot analyze {path}: {path}: a causality record at time 0 "
        f"has node {node} and detail {detail}, not detail [kind, uid, "
        "cause, dest, peer, payload] with a string kind, an integer uid, "
        "an integer or null cause, dest and peer, the cause below the uid, "
        "a list or null payload, and an integer node on a send"
    ]


@pytest.mark.parametrize(
    "lines",
    [
        [
            '{"category":"causality","node":0,"time":0,'
            '"detail":["send",1,2,0,1,null]}',
            '{"category":"causality","node":0,"time":0,'
            '"detail":["send",2,1,0,1,null]}',
        ],
        [
            '{"category":"causality","node":0,"time":0,'
            '"detail":["send",1,1,0,1,null]}',
        ],
    ],
    ids=["two-line-cycle", "self-cause"],
)
def test_trace_analyze_refuses_a_causal_cycle(lines, tmp_path):
    # A cause at or above its uid could close a cycle in the cause
    # forest: refused on load, in a child process so that a reader that
    # walks the cycle fails the timeout instead of hanging the suite.
    path = tmp_path / "cycle.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "analyze", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"cannot analyze {path}: {path}: a causality ")
    assert line.endswith(", the cause below the uid, a list or null "
                         "payload, and an integer node on a send")


def test_dataplane_report_refuses_a_file_without_dataplane_records(
    tmp_path, capsys
):
    trace = tmp_path / "trace.jsonl"
    assert run_cli(tmp_path, "--trace-out", str(trace)) == 0
    capsys.readouterr()
    assert main(["dataplane", "report", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot analyze {trace}: {trace}: no dataplane_trial record "
        "(a run without --dataplane?)"
    ]


def test_the_flags_route_one_stream_by_category(tmp_path, capsys):
    alone, beside, mixed = (
        tmp_path / f"{name}.jsonl" for name in ("alone", "beside", "mixed")
    )
    dataplane, metrics = tmp_path / "d.jsonl", tmp_path / "metrics"
    assert run_cli(tmp_path, "--trace-out", str(alone)) == 0
    assert run_cli(
        tmp_path, "--trace-out", str(beside), "--dataplane-out", str(dataplane)
    ) == 0
    assert run_cli(tmp_path, "--dataplane", "--trace-out", str(mixed)) == 0
    # The trace file keeps its bytes beside --dataplane-out.
    assert beside.read_bytes() == alone.read_bytes()

    def report(*argv):
        capsys.readouterr()
        assert main([*argv, "--json"]) == 0
        return {**json.loads(capsys.readouterr().out), "path": None}

    # Without --dataplane-out, --trace-out holds both, and each verb
    # reads its part of it.
    assert report("trace", "analyze", str(mixed)) == report(
        "trace", "analyze", str(alone)
    )
    assert report("dataplane", "report", str(mixed)) == report(
        "dataplane", "report", str(dataplane)
    )
    # A data-plane-only run traces nothing: no exploration summary.
    assert run_cli(
        tmp_path,
        "--dataplane-out", str(dataplane),
        "--metrics-out", str(metrics),
    ) == 0
    extra = json.loads((metrics / "manifest.json").read_text())["extra"]
    assert "dataplane" in extra and "exploration" not in extra


def test_pooled_campaign_report_numbers_trials_as_the_session(
    tmp_path, capsys
):
    campaign = tmp_path / "c.json"
    campaign.write_text(
        json.dumps(
            {
                "name": "cli-dataplane",
                "topology": {"kind": "skewed", "nodes": 20},
                "schemes": {"a": {"mrai": 0.5}},
                "axis": {"name": "failure_fraction", "values": [0.1]},
                "seeds": [1, 2, 3],
            }
        ),
        encoding="utf-8",
    )
    dataplane, metrics = tmp_path / "d.jsonl", tmp_path / "metrics"
    assert main(
        [
            "campaign", "run", str(campaign),
            "--store", str(tmp_path / "s.db"),
            "--jobs", "2",
            "--dataplane-out", str(dataplane),
            "--metrics-out", str(metrics),
        ]
    ) == 0
    capsys.readouterr()
    assert main(["dataplane", "report", str(dataplane), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    snapshots = [
        json.loads(line)
        for line in (metrics / "metrics.jsonl").read_text().splitlines()
    ]
    trials = [
        (s["trial"], s["seed"]) for s in snapshots if s["kind"] == "trial"
    ]
    assert len(trials) == 3
    assert [(t["trial"], t["seed"]) for t in report["per_trial"]] == trials


@pytest.mark.parametrize(
    "verb",
    [["trace", "analyze"], ["dataplane", "report"]],
    ids=["trace-analyze", "dataplane-report"],
)
@pytest.mark.parametrize("top", ["0", "-1"])
def test_offline_reports_refuse_a_non_positive_top(verb, top, tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([*verb, str(path), "--top", top])
    assert exc.value.code == 2
    assert "--top: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb",
    [
        ["run", "--nodes", "20", "--failure", "0.1", "--trace-out", "t.jsonl"],
        ["sweep", "--figure", "fig01", "--store", "s.db"],
        ["campaign", "run", "c.json", "--store", "s.db"],
        ["campaign", "resume", "c.json", "--store", "old.db"],
    ],
    ids=["run", "sweep", "campaign-run", "campaign-resume"],
)
def test_sample_interval_without_metrics_out_is_refused(
    verb, tmp_path, monkeypatch, capsys
):
    # The samples would be written nowhere: one stderr line, exit 2, no
    # trial, no new file.
    import repro.cli
    import repro.figures
    import repro.store.campaign
    from repro.store import ResultStore

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(repro.cli, "run_experiment", no_trial)
    monkeypatch.setattr(repro.figures, "compute_figure", no_trial)
    monkeypatch.setattr(repro.store.campaign, "run_campaign", no_trial)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(
        json.dumps(
            {
                "name": "cli-sampled",
                "schemes": {"a": {"mrai": 0.5}},
                "axis": {"name": "failure_fraction", "values": [0.1]},
                "seeds": [1],
            }
        ),
        encoding="utf-8",
    )
    ResultStore(tmp_path / "old.db").close()
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--sample-interval", "0.5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "--sample-interval requires --metrics-out DIR (the samples go to "
        "DIR/timeseries.csv)"
    ]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "verb",
    [
        ["sweep", "--figure", "fig01"],
        ["campaign", "run", "c.json"],
        ["campaign", "resume", "c.json"],
    ],
    ids=["sweep", "campaign-run", "campaign-resume"],
)
def test_unusable_store_leaves_the_sink_files_alone(verb, tmp_path, capsys):
    # The store is refused before the sinks are opened: one stderr line,
    # exit 2, and the files --trace-out / --dataplane-out name keep
    # every byte.
    (tmp_path / "c.json").write_text(
        json.dumps(
            {
                "name": "cli-bad-store",
                "schemes": {"a": {"mrai": 0.5}},
                "axis": {"name": "failure_fraction", "values": [0.1]},
                "seeds": [1],
            }
        ),
        encoding="utf-8",
    )
    (tmp_path / "bad.db").write_bytes(b"not a database\n" * 8)
    if verb[0] == "campaign":
        verb = [*verb[:2], str(tmp_path / verb[2])]
    sinks = [
        "--trace-out", str(tmp_path / "t.jsonl"),
        "--dataplane-out", str(tmp_path / "d.jsonl"),
    ]
    for sink in sinks[1::2]:
        with open(sink, "w", encoding="utf-8") as handle:
            handle.write("kept\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code = main([*verb, "--store", str(tmp_path / "bad.db"), *sinks])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "bad.db" in captured.err
    after = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before


def test_sweep_with_metrics_out(tmp_path, capsys):
    out = tmp_path / "sweep-out"
    code = main(
        [
            "sweep",
            "--figure", "fig03",
            "--scale", "quick",
            "--metrics-out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "repro-sweep"
    assert manifest["extra"]["figure"] == "fig03"
    assert manifest["extra"]["trials"] > 1
    # Trial snapshots of every executed trial of the figure made it out
    # through the session the command passed as obs=.
    trials = [
        json.loads(line)
        for line in (out / "metrics.jsonl").read_text().splitlines()
        if json.loads(line).get("kind") == "trial"
    ]
    assert len(trials) == manifest["extra"]["trials"]
