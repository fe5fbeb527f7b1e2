"""Live telemetry: monitor, heartbeat stream, campaign watch."""

import io
import json

import pytest

import repro.obs.live as live_mod
from repro.core.batch import BatchOutcome
from repro.core.experiment import TrialResult
from repro.obs.live import LiveMonitor, last_heartbeat, watch_campaign


class _Clock:
    """Stands in for the ``time`` module the monitor reads: wall
    seconds since construction are whatever ``now`` says."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def time(self):
        return 1.0e9 + self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(live_mod, "time", fake)
    return fake


def _trial(wall):
    return TrialResult(
        convergence_delay=1.0,
        messages_sent=1,
        withdrawals_sent=0,
        updates_processed=0,
        stale_dropped=0,
        route_changes=0,
        failure_size=1,
        failure_time=0.0,
        warmup_time=0.0,
        warmup_messages=0,
        events_executed=0,
        seed=1,
        truncated=False,
        warmup_wall=wall / 4,
        convergence_wall=wall * 3 / 4,
    )


def _ran(wall):
    """An executed trial that simulated for ``wall`` seconds."""
    return BatchOutcome(0, trial=_trial(wall))


def _hit():
    return BatchOutcome(0, trial=_trial(9.0), cached=True)


def _failed():
    return BatchOutcome(0, error="RuntimeError: boom")


# ----------------------------------------------------------------------
# LiveMonitor
# ----------------------------------------------------------------------
def test_monitor_status_line_and_renders(clock):
    out = io.StringIO()
    mon = LiveMonitor(total=10, jobs=4, stream=out, label="t")
    for wall in (5.0, 5.0, 10.0):
        mon(_ran(wall))
    clock.now = 10.0
    line = mon.status_line()
    assert line.startswith("[3/10] t cached 0")
    assert "util 50%" in line  # 20 busy / (10 elapsed * 4 jobs)
    assert "elapsed 10s" in line
    assert mon.renders == 3
    assert "[3/10]" in out.getvalue()
    mon.finish()


def test_monitor_eta_uses_trial_wall_times(clock):
    mon = LiveMonitor(total=10, jobs=2, stream=None)
    # 4 done, 6 to go, 8s of simulation over 4 trials = 2 s/trial; two
    # workers halve it: 6 * 2 / 2 = 6s.
    for _ in range(4):
        mon(_ran(2.0))
    assert mon.eta_seconds() == 6.0
    # Elapsed time plays no part: there is no elapsed/done fallback.
    clock.now = 1000.0
    assert mon.eta_seconds() == 6.0
    assert mon.snapshot()["eta_seconds"] == 6.0


def test_monitor_eta_first_heartbeat_has_no_estimate():
    """No executed trial — nothing settled yet, or only a failure — must
    not divide by zero or fabricate an ETA."""
    mon = LiveMonitor(total=10, jobs=2, stream=None)
    assert mon.eta_seconds() is None
    mon(_failed())
    assert mon.eta_seconds() is None
    assert mon.snapshot()["eta_seconds"] is None
    assert "eta ?" in mon.status_line()


def test_monitor_eta_finished_run_is_zero():
    mon = LiveMonitor(total=2, jobs=2, stream=None)
    mon(_ran(4.0))
    mon(_ran(4.0))
    assert mon.eta_seconds() == 0.0
    cached = LiveMonitor(total=2, jobs=2, stream=None)
    cached(_hit())
    cached(_hit())
    assert cached.eta_seconds() == 0.0


def test_monitor_eta_all_cached_with_stray_busy_seconds(clock):
    """Store hits carry the wall time of the run that banked them (9 s
    each here).  With zero *executed* trials that time must not be
    counted or extrapolated from a zero divisor, and elapsed time is no
    fallback: the ETA stays unknown."""
    mon = LiveMonitor(total=10, jobs=2, stream=None)
    for _ in range(3):
        mon(_hit())
    clock.now = 1.0
    assert mon.busy_seconds == 0.0
    assert mon.eta_seconds() is None
    assert mon.snapshot()["eta_seconds"] is None
    assert "cached 3" in mon.status_line()
    assert "eta ?" in mon.status_line()


def test_monitor_eta_and_hit_rate_read_only_the_tick(clock):
    """The ETA and the hit rate read only the folded outcomes.  After 36
    executed trials of 72, the ETA extrapolates over executed = 36 rather
    than uptime / done (1000 s here).  The hit rate is cached / done,
    shown on the status line only when some trial was cached."""
    mon = LiveMonitor(total=72, jobs=2, stream=None)
    for _ in range(36):
        mon(_ran(1.0))
    clock.now = 1000.0
    assert mon.eta_seconds() == 18.0  # 36 left x 1 s / 2 jobs
    assert mon.snapshot()["cached"] == 0
    assert mon.snapshot()["hit_rate"] == 0.0
    assert "hit" not in mon.status_line()
    warm = LiveMonitor(total=10, jobs=2, stream=None)
    for _ in range(6):
        warm(_hit())
    for _ in range(2):
        warm(_ran(1.0))
    assert warm.eta_seconds() == 1.0  # 2 left x 1 s / 2 jobs
    assert warm.snapshot()["hit_rate"] == 0.75
    assert "hit 75%" in warm.status_line()


def test_monitor_cached_prefix_is_folded_not_rendered_and_has_no_eta(
    tmp_path,
):
    """A resume whose store serves 9 of 12 trials: the hits carry no
    wall time, so the ETA stays unknown (never 0.0) until a trial has
    executed, and the prefix costs no render of its own — the first
    execution's record shows it.  A cached trial's own wall time (9 s
    here, from the run that banked it) is never counted."""
    hb = tmp_path / "hb.jsonl"
    with LiveMonitor(total=12, jobs=2, stream=None, heartbeat=hb) as mon:
        for _ in range(9):
            mon(_hit())
        assert mon.renders == 0
        assert (mon.done, mon.cached, mon.busy_seconds) == (9, 9, 0.0)
        assert mon.snapshot()["eta_seconds"] is None
        assert "hit 100%" in mon.status_line()
        mon(_ran(2.0))  # 2 left x 2 s / 2 jobs
        assert mon.renders == 1
    [record] = [json.loads(line) for line in hb.read_text().splitlines()]
    assert (record["done"], record["cached"], record["total"]) == (10, 9, 12)
    assert record["eta_seconds"] == 2.0
    assert record["hit_rate"] == 0.9


def test_monitor_all_cached_run_renders_once_at_finish(tmp_path):
    hb = tmp_path / "hb.jsonl"
    mon = LiveMonitor(total=3, stream=None, heartbeat=hb, label="warm")
    for _ in range(3):
        mon(_hit())
    assert mon.renders == 0 and not hb.exists()
    mon.finish()
    mon.finish()  # idempotent: still one record
    [record] = [json.loads(line) for line in hb.read_text().splitlines()]
    assert record["done"] == record["cached"] == record["total"] == 3
    assert record["eta_seconds"] == 0.0
    assert record["label"] == "warm"


def test_monitor_failed_and_no_stream():
    mon = LiveMonitor(total=5, jobs=1, stream=None)
    for _ in range(3):
        mon(_failed())
    assert (mon.failed, mon.done, mon.renders) == (3, 0, 3)
    assert "failed 3" in mon.status_line()
    mon.finish()  # no stream: must not raise


def test_monitor_heartbeat_jsonl(tmp_path, clock):
    hb = tmp_path / "hb.jsonl"
    with LiveMonitor(total=4, jobs=2, stream=None, heartbeat=hb) as mon:
        clock.now = 5.0
        mon(_ran(3.0))
        clock.now = 6.0
        mon(_ran(3.0))
    lines = hb.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert [r["done"] for r in records] == [1, 2]
    last = records[-1]
    assert sorted(last) == [
        "busy_seconds", "cached", "done", "elapsed_seconds", "eta_seconds",
        "failed", "hit_rate", "jobs", "kind", "label", "total", "ts",
        "utilization",
    ]
    assert last["kind"] == "heartbeat"
    assert last["total"] == 4
    assert last["jobs"] == 2
    assert last["elapsed_seconds"] == 6.0
    assert last["busy_seconds"] == pytest.approx(6.0)
    assert last["utilization"] == pytest.approx(0.5)
    assert last["eta_seconds"] == 3.0  # 2 left x 3 s / 2 jobs


def test_last_heartbeat_tolerates_truncated_tail(tmp_path):
    hb = tmp_path / "hb.jsonl"
    hb.write_text(
        json.dumps({"done": 1}) + "\n" + '{"done": 2, "trunc',
        encoding="utf-8",
    )
    assert last_heartbeat(hb) == {"done": 1}
    assert last_heartbeat(tmp_path / "missing.jsonl") is None
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    assert last_heartbeat(tmp_path / "empty.jsonl") is None


# ----------------------------------------------------------------------
# Outcomes from a real batch
# ----------------------------------------------------------------------
def test_batch_progress_ticks_carry_busy_seconds():
    from tests.conftest import run_cell

    mon = LiveMonitor(total=2, stream=None)
    run_cell({"mrai": 0.5}, [1, 2], nodes=10, failure=0.2, on_outcome=mon)
    assert (mon.done, mon.cached, mon.renders) == (2, 0, 2)
    assert mon.busy_seconds > 0.0
    assert mon.eta_seconds() == 0.0


# ----------------------------------------------------------------------
# Campaign watch
# ----------------------------------------------------------------------
def _campaign(store_path, seeds):
    from repro.store.campaign import Campaign

    return Campaign(
        name="watch-unit",
        topology={"kind": "skewed", "nodes": 24, "distribution": "70-30"},
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis="failure_fraction",
        values=[0.1],
        seeds=seeds,
        store_path=str(store_path),
    )


def test_watch_campaign_finished_and_in_flight(tmp_path):
    from repro.store.campaign import run_campaign
    from repro.store.result_store import ResultStore

    store_path = tmp_path / "store.db"
    done = _campaign(store_path, seeds=[1, 2])
    with ResultStore(store_path) as store:
        run_campaign(done, store)
        finished = watch_campaign(done, store)
        assert "100%" in finished
        assert "(2/2 trials cached)" in finished
        assert finished.splitlines()[-1] == "status: complete"

        # A larger grid against the same store is "in flight": the two
        # banked trials are cached, the third is still to go.
        bigger = _campaign(store_path, seeds=[1, 2, 3])
        inflight = watch_campaign(bigger, store)
        assert "(2/3 trials cached)" in inflight
        assert inflight.splitlines()[-1] == (
            "status: in flight (1 trials to go)"
        )


def test_watch_campaign_heartbeat_line(tmp_path):
    from repro.store.campaign import run_campaign
    from repro.store.result_store import ResultStore

    store_path = tmp_path / "store.db"
    campaign = _campaign(store_path, seeds=[1])
    hb = tmp_path / "hb.jsonl"
    with ResultStore(store_path) as store:
        with LiveMonitor(
            total=campaign.total_trials, stream=None, heartbeat=hb
        ) as mon:
            run_campaign(campaign, store, on_outcome=mon)
        rendered = watch_campaign(campaign, store, heartbeat=hb)
        missing = watch_campaign(
            campaign, store, heartbeat=tmp_path / "none.jsonl"
        )
    assert "heartbeat (" in rendered
    assert "util" in rendered
    assert "no records yet" in missing


def test_cli_campaign_watch(tmp_path, capsys):
    from repro.cli import main

    store = tmp_path / "store.db"
    data = {
        "name": "watch-cli",
        "topology": {"kind": "skewed", "nodes": 24,
                     "distribution": "70-30"},
        "schemes": {"fifo-0.5": {"mrai": 0.5}},
        "axis": {"name": "failure_fraction", "values": [0.1]},
        "seeds": [1, 2],
        "store": str(store),
    }
    cfile = tmp_path / "campaign.json"
    cfile.write_text(json.dumps(data), encoding="utf-8")

    # No store yet: reported as not started, exit 1.
    assert main(["campaign", "watch", str(cfile)]) == 1
    assert "does not exist yet" in capsys.readouterr().out

    hb = tmp_path / "hb.jsonl"
    assert main(
        ["campaign", "run", str(cfile), "--heartbeat", str(hb)]
    ) == 0
    capsys.readouterr()
    assert hb.exists()

    # Finished grid: complete, exit 0 (with the heartbeat line shown).
    code = main(
        ["campaign", "watch", str(cfile), "--heartbeat", str(hb)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status: complete" in out
    assert "heartbeat (" in out

    # In-flight grid (more seeds than the store has banked): exit 1.
    data["seeds"] = [1, 2, 3, 4]
    cfile.write_text(json.dumps(data), encoding="utf-8")
    code = main(["campaign", "watch", str(cfile)])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: in flight (2 trials to go)" in out
    assert "2/4 trials cached" in out


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_cli_sweep_heartbeat_is_one_run_over_every_grid(
    tmp_path, capsys, monkeypatch
):
    """fig05 runs two grids; its heartbeat counts the figure's trials as
    one run, and a warm re-run of it is one record.  The quick profile
    shrinks to 24 nodes so the sweep runs in about a second."""
    import dataclasses

    from repro.cli import main
    from repro.figures import FIGURES, PROFILES, QUICK

    tiny = dataclasses.replace(QUICK, nodes=24)
    monkeypatch.setitem(PROFILES, "quick", tiny)
    grids = FIGURES["fig05"].grids(tiny)
    total = sum(grid.total_trials for grid in grids)
    assert (len(grids), total) == (2, 10)
    store = str(tmp_path / "s.db")
    cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    for hb in (cold, warm):
        argv = ["sweep", "--figure", "fig05", "--store", store]
        assert main(argv + ["--heartbeat", str(hb)]) == 0
    capsys.readouterr()

    records = _records(cold)
    assert [r["done"] for r in records] == list(range(1, total + 1))
    assert {(r["total"], r["label"], r["cached"]) for r in records} == {
        (total, "fig05", 0)
    }
    assert all(r["eta_seconds"] is not None for r in records)
    assert records[-1]["eta_seconds"] == 0.0
    [record] = _records(warm)
    assert record["done"] == record["cached"] == record["total"] == total
    assert record["eta_seconds"] == 0.0


def _cli_campaign(tmp_path, seeds):
    cfile = tmp_path / "campaign.json"
    cfile.write_text(
        json.dumps(
            {
                "name": "hb-cli",
                "topology": {"kind": "skewed", "nodes": 24},
                "schemes": {"fifo-0.5": {"mrai": 0.5}},
                "axis": {"name": "failure_fraction", "values": [0.1]},
                "seeds": seeds,
                "store": str(tmp_path / "store.db"),
            }
        ),
        encoding="utf-8",
    )
    return str(cfile)


def test_cli_resume_renders_a_cached_prefix_once_with_a_known_eta(
    tmp_path, capsys
):
    """2 of 4 trials banked: no record reports the prefix alone, whose
    lookup speed says nothing of the cold trials; the first record
    already holds an execution, so every record has an ETA."""
    from repro.cli import main

    assert main(["campaign", "run", _cli_campaign(tmp_path, [1, 2])]) == 0
    hb = tmp_path / "hb.jsonl"
    cfile = _cli_campaign(tmp_path, [1, 2, 3, 4])
    assert main(["campaign", "resume", cfile, "--heartbeat", str(hb)]) == 0
    capsys.readouterr()
    records = _records(hb)
    assert [(r["done"], r["cached"]) for r in records] == [(3, 2), (4, 2)]
    assert {(r["total"], r["label"]) for r in records} == {(4, "hb-cli")}
    assert all(r["eta_seconds"] is not None for r in records)
    assert records[-1]["eta_seconds"] == 0.0


def test_cli_all_cached_resume_writes_one_heartbeat_record(tmp_path, capsys):
    from repro.cli import main

    cfile = _cli_campaign(tmp_path, [1, 2])
    assert main(["campaign", "run", cfile]) == 0
    hb = tmp_path / "hb.jsonl"
    assert main(["campaign", "resume", cfile, "--heartbeat", str(hb)]) == 0
    capsys.readouterr()
    [record] = _records(hb)
    assert record["done"] == record["cached"] == record["total"] == 2
    assert record["eta_seconds"] == 0.0
    assert record["label"] == "hb-cli"
