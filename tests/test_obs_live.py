"""Live telemetry: monitor, heartbeat stream, campaign watch."""

import io
import json

import pytest

from repro.core.experiment import Progress
from repro.obs.live import LiveMonitor, last_heartbeat, watch_campaign


def _tick(done, total, elapsed=10.0, busy=0.0, failed=0, label="t", **extra):
    return Progress(
        done=done,
        total=total,
        elapsed=elapsed,
        label=label,
        busy_seconds=busy,
        failed=failed,
        **extra,
    )


# ----------------------------------------------------------------------
# LiveMonitor
# ----------------------------------------------------------------------
def test_monitor_status_line_and_renders():
    out = io.StringIO()
    mon = LiveMonitor(jobs=4, stream=out)
    mon(_tick(3, 10, elapsed=10.0, busy=20.0))
    line = mon.status_line()
    assert "[3/10]" in line
    assert "util 50%" in line  # 20 busy / (10 elapsed * 4 jobs)
    assert "elapsed 10s" in line
    assert mon.renders == 1
    assert "[3/10]" in out.getvalue()
    mon.finish()


def test_monitor_eta_uses_trial_wall_times():
    mon = LiveMonitor(jobs=2, stream=None)
    # 4 done, 6 to go, 8s of simulation over 4 trials = 2 s/trial; two
    # workers halve it: 6 * 2 / 2 = 6s.
    mon(_tick(4, 10, elapsed=100.0, busy=8.0))
    assert mon.eta_seconds() == pytest.approx(6.0)
    # Without wall times it falls back to the tick's elapsed/done ETA.
    mon2 = LiveMonitor(jobs=2, stream=None)
    tick = _tick(4, 10, elapsed=8.0, busy=0.0)
    mon2(tick)
    assert mon2.eta_seconds() == pytest.approx(tick.eta)


def test_monitor_eta_first_heartbeat_has_no_estimate():
    """Zero completed trials / zero busy seconds must not divide by zero
    or fabricate an ETA on the first heartbeat."""
    mon = LiveMonitor(jobs=2, stream=None)
    mon(_tick(0, 10, elapsed=0.0, busy=0.0))
    assert mon.eta_seconds() == float("inf")
    assert mon.snapshot()["eta_seconds"] is None
    assert "eta ?" in mon.status_line()


def test_monitor_eta_finished_run_is_zero():
    mon = LiveMonitor(jobs=2, stream=None)
    mon(_tick(10, 10, elapsed=5.0, busy=4.0))
    assert mon.eta_seconds() == 0.0


def test_monitor_eta_all_cached_with_stray_busy_seconds():
    """busy_seconds > 0 with zero *executed* trials (everything was a
    cache hit) must not extrapolate from a zero divisor; it falls back
    to the tick's elapsed/done estimate."""

    mon = LiveMonitor(jobs=2, stream=None)
    tick = _tick(3, 10, elapsed=1.0, busy=5.0, cached=3)
    mon(tick)
    assert mon.eta_seconds() == pytest.approx(tick.eta)
    assert "cached 3" in mon.status_line()


def test_monitor_eta_and_hit_rate_read_only_the_tick():
    """The service executor's ticks count executed trials only (cached
    = 0), so after one warm 36-trial submission the ETA still reads
    executed = 36 rather than falling back to uptime / done (1000 s
    here).  The hit rate is the tick's own cached / done, shown on the
    status line only when the tick carries cached trials."""

    mon = LiveMonitor(jobs=2, stream=None)
    mon(_tick(36, 72, elapsed=1000.0, busy=36.0))  # executor tick: cached=0
    assert mon.eta_seconds() == pytest.approx(18.0)
    assert mon.snapshot()["cached"] == 0
    assert mon.snapshot()["hit_rate"] == 0.0
    assert "hit" not in mon.status_line()
    mon(_tick(8, 10, elapsed=2.0, busy=2.0, cached=6))  # a batch's tick
    assert mon.eta_seconds() == pytest.approx(1.0)  # 2 left x 1 s / 2 jobs
    assert mon.snapshot()["hit_rate"] == 0.75
    assert "hit 75%" in mon.status_line()


def test_monitor_failed_and_no_stream():
    mon = LiveMonitor(jobs=1, stream=None)
    mon(_tick(2, 5, failed=3))
    assert mon.failed == 3
    assert "failed 3" in mon.status_line()
    mon.finish()  # no stream: must not raise


def test_monitor_heartbeat_jsonl(tmp_path):
    hb = tmp_path / "hb.jsonl"
    with LiveMonitor(jobs=2, stream=None, heartbeat=hb) as mon:
        mon(_tick(1, 4, elapsed=5.0, busy=3.0))
        mon(_tick(2, 4, elapsed=6.0, busy=6.0))
    lines = hb.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert [r["done"] for r in records] == [1, 2]
    last = records[-1]
    assert last["kind"] == "heartbeat"
    assert last["total"] == 4
    assert last["jobs"] == 2
    assert last["busy_seconds"] == pytest.approx(6.0)
    assert last["utilization"] == pytest.approx(0.5)
    assert last["eta_seconds"] is not None


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
# Ticks from a real batch
# ----------------------------------------------------------------------
def test_batch_progress_ticks_carry_busy_seconds():
    from tests.conftest import run_cell

    ticks = []
    run_cell(
        {"mrai": 0.5}, [1, 2], nodes=10, failure=0.2, progress=ticks.append
    )
    assert [t.done for t in ticks] == [1, 2]
    assert ticks[-1].busy_seconds > 0.0


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
        with LiveMonitor(jobs=1, stream=None, heartbeat=hb) as mon:
            run_campaign(campaign, store, progress=mon)
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
