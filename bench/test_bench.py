"""Checks of the benchmark itself, at ``--smoke`` sizes (``pytest bench/``).

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it when
``bench/`` or ``BENCHMARK.json`` changes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> list:
    """Two full smoke runs, traced: (printed text, --out record) each."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp("bench") / f"run{i}.json"
        done = run_bench("--traced", "--out", str(out))
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, json.loads(out.read_text(encoding="utf-8"))))
    return runs


def test_manifest_limits_and_names():
    names = (
        [w["name"] for w in MANIFEST["workloads"]]
        + [m["name"] for m in MANIFEST["end_to_end"]]
        + [m["name"] for m in MANIFEST["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert all(m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])


def test_every_declared_metric_is_printed(smoke_runs):
    text, record = smoke_runs[0]
    printed = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in record["workloads"]:
            printed.setdefault(parts[1], set()).add(parts[3])
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert printed.get(metric["name"]) == {metric["unit"]}, metric["name"]
    # Every workload carries every declared name in its record, and an
    # end-to-end metric is never 0.
    for name, workload in record["workloads"].items():
        assert workload["correct"], workload["failures"]
        for metric in MANIFEST["end_to_end"]:
            assert workload["metrics"][metric["name"]]["value"] > 0, name
        for metric in MANIFEST["per_layer"]:
            assert metric["name"] in workload["metrics"], (name, metric["name"])


def test_driver_form_prints_one_closing_record():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = run_bench(
            "--workload", "fifo_storm", "--seed", "5", "--trace", str(trace)
        )
        assert done.returncode == 0, done.stderr
        closing = json.loads(done.stdout.splitlines()[-1])
        assert set(closing) == {"correct", "attempted", "failed", "metrics"}
        assert closing["correct"] and closing["failed"] == 0
        assert closing["attempted"] >= 1
        assert list(closing["metrics"]) == [m["name"] for m in MANIFEST[kind]]


def test_counts_repeat_exactly(smoke_runs):
    (_, first), (_, second) = smoke_runs
    compared = 0
    for name, workload in first["workloads"].items():
        for metric, record in workload["metrics"].items():
            if record["unit"] == "count":
                other = second["workloads"][name]["metrics"][metric]
                assert record["value"] == other["value"], (name, metric)
                compared += 1
    assert compared > 40


def test_compare_accepts_a_rerun_and_rejects_a_count_change(smoke_runs, tmp_path):
    (_, first), (_, second) = smoke_runs
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    # Counts only: smoke-sized timings are too short to compare.
    for doc in (first, second):
        for workload in doc["workloads"].values():
            workload["metrics"] = {
                k: v for k, v in workload["metrics"].items() if v["unit"] == "count"
            }
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    compare = [sys.executable, str(BENCH / "compare.py"), str(a), str(b)]
    assert subprocess.run(compare, capture_output=True).returncode == 0
    second["workloads"]["fifo_storm"]["metrics"]["sim.events_executed"]["value"] += 1
    b.write_text(json.dumps(second))
    done = subprocess.run(compare, capture_output=True, text=True)
    assert done.returncode == 1
    assert "MISMATCH" in done.stderr


def test_corrupted_pin_fails_the_run(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    expected["smoke"]["fifo_storm"]["events_executed"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    done = run_bench("--workload", "fifo_storm", "--expected", str(corrupted))
    assert done.returncode != 0
    assert "pinned" in done.stderr
    closing = json.loads(done.stdout.splitlines()[-1])
    assert closing["correct"] is False and closing["failed"] >= 1
    # Another seed skips the pin and keeps every other check.
    done = run_bench(
        "--workload", "fifo_storm", "--expected", str(corrupted), "--seed", "2"
    )
    assert done.returncode == 0, done.stderr
