"""Tests for run manifests and the export writers."""

import csv
import json

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.obs.export import (
    AGGREGATE_FIELDS,
    TIMESERIES_FIELDS,
    write_metrics_jsonl,
)
from repro.obs.manifest import (
    PhaseTiming,
    RunManifest,
    host_fingerprint,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import ObsSession
from repro.sim.engine import Simulator
from repro.specs import build_spec, spec_to_dict
from repro.specs.serialize import SpecSerializationError
from repro.topology.skewed import skewed_topology


def test_host_fingerprint_keys():
    host = host_fingerprint()
    assert set(host) == {
        "python", "implementation", "platform", "machine", "hostname"
    }


# ----------------------------------------------------------------------
# PhaseTiming / RunManifest round-trip
# ----------------------------------------------------------------------
def test_phase_timing_round_trip(tmp_path):
    timing = PhaseTiming("warmup", 1.5, sim_seconds=30.0, events=1000)
    path = RunManifest(phases=[timing]).save(tmp_path / "manifest.json")
    assert json.loads(path.read_text())["phases"] == [
        {"name": "warmup", "wall_seconds": 1.5, "sim_seconds": 30.0,
         "events": 1000}
    ]


def test_manifest_round_trip(tmp_path):
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    manifest = RunManifest.create(
        kind="repro-run",
        command="run --nodes 30",
        spec=spec_to_dict(spec),
        seeds=[1, 2],
        topology="skewed(30)",
        phases=[
            PhaseTiming("warmup", 1.0, sim_seconds=20.0, events=500),
            PhaseTiming("convergence", 2.0, sim_seconds=10.0, events=700),
        ],
        counters={"updates_sent": 100},
        extra={"note": "test"},
    )

    path = manifest.save(tmp_path / "manifest.json")
    loaded = json.loads(path.read_text())
    assert loaded == manifest.to_dict()
    assert loaded["phases"][1]["events"] == 700
    assert loaded["package_version"]
    assert loaded["created_utc"]
    assert loaded["spec"] == spec_to_dict(spec)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_metrics_records_appends_extras(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").inc()
    path = write_metrics_jsonl(
        reg, tmp_path / "metrics.jsonl", [{"kind": "trial", "trial": 0}]
    )
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["name"] == "c"
    assert records[-1] == {"kind": "trial", "trial": 0}


def test_write_metrics_jsonl(tmp_path):
    reg = MetricsRegistry()
    reg.counter("msgs").inc(7)
    reg.histogram("svc", buckets=(1.0,)).observe(0.5)
    path = write_metrics_jsonl(reg, tmp_path / "metrics.jsonl")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {row["kind"] for row in rows}
    assert kinds == {"counter", "histogram"}


# ----------------------------------------------------------------------
# Session end-to-end export
# ----------------------------------------------------------------------
def test_session_export_writes_all_artifacts(tmp_path):
    obs = ObsSession(sample_interval=0.5, profile=True)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    run_experiment(skewed_topology(30, seed=3), spec, seed=1, obs=obs)

    written = obs.export(tmp_path, command="test")
    names = {p.name for p in written}
    assert names == {
        "manifest.json",
        "metrics.jsonl",
        "timeseries.csv",
        "aggregates.csv",
        "profile.txt",
    }

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    phase_names = [p["name"] for p in manifest["phases"]]
    assert phase_names == ["warmup", "failure", "convergence"]
    assert manifest["seeds"] == [1]
    assert manifest["extra"]["trials"] == 1
    assert manifest["extra"]["profiled_events"] > 0
    assert manifest["counters"]["updates_sent"] > 0
    # The spec is its declarative dict, which builds the spec again.
    assert manifest["spec"] == spec_to_dict(spec)
    assert spec_to_dict(build_spec(manifest["spec"])) == manifest["spec"]

    rows = [
        json.loads(line)
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
    ]
    kinds = {row["kind"] for row in rows}
    assert {"counter", "histogram", "trial", "profile"} <= kinds

    with (tmp_path / "timeseries.csv").open() as fh:
        ts = list(csv.reader(fh))
    assert ts[0] == TIMESERIES_FIELDS
    assert len(ts) > 1

    with (tmp_path / "aggregates.csv").open() as fh:
        agg = list(csv.reader(fh))
    assert agg[0] == AGGREGATE_FIELDS
    assert len(agg) > 1

    assert "event-loop profile" in (tmp_path / "profile.txt").read_text()


def test_session_export_without_probe_or_profiler(tmp_path):
    obs = ObsSession()  # metrics only
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    run_experiment(skewed_topology(30, seed=3), spec, seed=1, obs=obs)
    written = obs.export(tmp_path)
    names = {p.name for p in written}
    assert "profile.txt" not in names
    # Empty CSVs still carry their header row.
    assert (tmp_path / "timeseries.csv").read_text().splitlines()[0]


def test_session_phase_labels_multi_trial():
    obs = ObsSession()
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    topo = skewed_topology(30, seed=3)
    run_experiment(topo, spec, seed=1, obs=obs)
    run_experiment(topo, spec, seed=2, obs=obs)
    labels = [p.name for p in obs.phases]
    assert labels[:3] == ["warmup", "failure", "convergence"]
    assert labels[3:] == ["warmup[1]", "failure[1]", "convergence[1]"]
    assert [s["trial"] for s in obs.trial_snapshots] == [0, 1]


def test_session_refuses_a_spec_with_no_declarative_form(monkeypatch):
    # Refused before its trial runs: the manifest could only record such
    # a spec as a string that no build_spec reads back, and the refusal
    # must not cost a simulation (no simulator executes an event).
    class OddMRAI(ConstantMRAI):
        pass

    executed = []
    real_run = Simulator.run

    def counted(self, *args, **kwargs):
        try:
            return real_run(self, *args, **kwargs)
        finally:
            executed.append(self.events_executed)

    monkeypatch.setattr(Simulator, "run", counted)
    obs = ObsSession()
    spec = ExperimentSpec(mrai=OddMRAI(0.5), failure_fraction=0.1)
    with pytest.raises(SpecSerializationError, match="OddMRAI"):
        run_experiment(skewed_topology(12, seed=1), spec, seed=1, obs=obs)
    assert obs.trial_snapshots == []
    assert sum(executed) == 0
