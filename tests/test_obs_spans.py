"""Span tracing: disabled cost, nesting, round-trips, exports, neutrality."""

import json
from collections import Counter

import pytest

from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.parallel import pool_stats
from repro.obs.session import ObsSession
from repro.obs.spans import (
    NOOP_SPAN,
    SpanRecorder,
    active_recorder,
    record_spans,
    span,
)
from repro.sim.timers import Jitter
from repro.topology.skewed import skewed_topology
from tests.conftest import clique_topology, run_cell


# ----------------------------------------------------------------------
# Core mechanics
# ----------------------------------------------------------------------
def test_span_disabled_is_shared_noop():
    assert active_recorder() is None
    s = span("anything", x=1)
    assert s is NOOP_SPAN
    assert span("other") is s  # one object, no allocation per call
    with s as inner:
        assert inner is s
        assert inner.set(y=2) is s  # set() is a no-op, chainable


def test_record_spans_nesting_paths():
    with record_spans() as rec:
        with span("outer", a=1) as outer:
            with span("inner"):
                pass
            outer.set(b=2)
        with span("second"):
            pass
    paths = [r["path"] for r in rec.records]
    # Children finish (and record) before their parents.
    assert paths == ["outer/inner", "outer", "second"]
    outer_rec = rec.records[1]
    assert outer_rec["attrs"] == {"a": 1, "b": 2}
    assert all(r["dur"] >= 0.0 for r in rec.records)


def test_record_spans_restores_previous_recorder_and_path():
    with record_spans() as outer_rec:
        with span("outer"):
            with record_spans() as inner_rec:
                assert active_recorder() is inner_rec
                with span("fresh_root"):
                    pass
            assert active_recorder() is outer_rec
    # The nested block restarts paths at root (fork-inheritance guard).
    assert [r["path"] for r in inner_rec.records] == ["fresh_root"]
    assert [r["path"] for r in outer_rec.records] == ["outer"]
    assert active_recorder() is None


# ----------------------------------------------------------------------
# Rollup + Chrome trace
# ----------------------------------------------------------------------
def test_rollup_shares_and_parent_denominators():
    rec = SpanRecorder()
    rec.records = [
        {"name": "root", "path": "root", "start": 0.0, "dur": 10.0,
         "pid": 1, "attrs": {}},
        {"name": "a", "path": "root/a", "start": 0.0, "dur": 4.0,
         "pid": 1, "attrs": {}},
        {"name": "a", "path": "root/a", "start": 4.0, "dur": 2.0,
         "pid": 1, "attrs": {}},
        {"name": "b", "path": "root/a/b", "start": 0.5, "dur": 3.0,
         "pid": 1, "attrs": {}},
    ]
    rows = {r.path: r for r in rec.rollup()}
    assert rows["root"].share_of_parent == pytest.approx(1.0)  # of wall
    assert rows["root/a"].count == 2
    assert rows["root/a"].total_seconds == pytest.approx(6.0)
    assert rows["root/a"].share_of_parent == pytest.approx(0.6)
    assert rows["root/a/b"].share_of_parent == pytest.approx(3.0 / 6.0)
    assert rows["root/a"].mean_ms == pytest.approx(3000.0)
    table = rec.render_rollup()
    assert "root" in table and "% parent" in table


def test_chrome_trace_structure(tmp_path):
    with record_spans() as rec:
        with span("outer", k="v"):
            with span("inner"):
                pass
    path = rec.write_chrome_trace(tmp_path / "spans.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    events = doc["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    xs = [e for e in events if e["ph"] == "X"]
    assert len(metas) == 1 and metas[0]["args"]["name"] == "parent"
    assert {e["name"] for e in xs} == {"outer", "inner"}
    # Timestamps are rebased to the earliest span and non-negative.
    assert min(e["ts"] for e in xs) == pytest.approx(0.0, abs=1e-3)
    outer = next(e for e in xs if e["name"] == "outer")
    assert outer["args"]["k"] == "v"
    assert outer["args"]["path"] == "outer"
    assert doc["displayTimeUnit"] == "ms"
    assert set(doc) == {"traceEvents", "displayTimeUnit"}


def test_absorb_records_grafts_prefix_losslessly():
    worker = SpanRecorder()
    with record_spans(worker):
        with span("trial.execute", seed=9):
            with span("trial.warmup"):
                pass
    shipped = json.loads(json.dumps(worker.records))  # picklable/JSON-safe
    parent = SpanRecorder()
    parent.absorb_records(shipped, prefix="workers")
    assert [r["path"] for r in parent.records] == [
        "workers/trial.execute/trial.warmup",
        "workers/trial.execute",
    ]
    grafted = parent.records[1]
    original = worker.records[1]
    assert grafted["attrs"] == original["attrs"] == {"seed": 9}
    assert grafted["start"] == original["start"]
    assert grafted["dur"] == original["dur"]
    assert grafted["pid"] == original["pid"]
    assert parent.total("trial.warmup") == pytest.approx(
        worker.total("trial.warmup")
    )


# ----------------------------------------------------------------------
# Trajectory neutrality (golden pins)
# ----------------------------------------------------------------------
def test_spans_are_trajectory_neutral_golden():
    """The golden 5-clique counters hold with span recording active."""
    config = BGPConfig(
        mrai_policy=ConstantMRAI(1.0),
        processing_delay_range=(0.0, 0.0),
        mrai_jitter=Jitter(1.0, 1.0),
    )
    with record_spans():
        with span("test.harness"):
            net = BGPNetwork(clique_topology(5), config, seed=1)
            net.start()
            net.run_until_quiet()
    assert net.counters["updates_sent"] == 80
    assert net.counters["route_changes"] == 25


def test_spans_do_not_change_experiment_results():
    topo = skewed_topology(30, seed=7)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    bare = run_experiment(topo, spec, seed=3)
    with record_spans() as rec:
        recorded = run_experiment(topo, spec, seed=3)
    assert recorded == bare
    assert rec.total("trial.warmup") > 0.0
    assert {"trial.warmup", "trial.failure", "trial.convergence"} <= {
        r["name"] for r in rec.records
    }


# ----------------------------------------------------------------------
# Disabled-instrumentation budget: span sites per trial, as a count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nodes", [12, 30])
def test_span_sites_per_trial_are_an_exact_count(nodes, tmp_path):
    """Span sites per trial are a constant — 3 per ``run_experiment``,
    8 per executed trial + 4 per batch of a store-backed ``jobs=1``
    one-cell campaign — whatever the topology size or event count.

    Replaces the "< 2% of trial wall" disabled-instrumentation gate,
    which multiplied a micro-benchmarked ``span()`` by a guessed 16
    sites per trial: this pins that factor exactly,
    ``test_span_disabled_is_shared_noop`` pins that a disabled
    ``span()`` allocates nothing, and the ledger prints its nanoseconds
    (``obs.span_disabled_ns``).  A ``span()`` added on a per-event path
    makes the count scale with the run and fails here.
    """
    from repro.store.result_store import ResultStore

    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    phases = ["trial.warmup", "trial.failure", "trial.convergence"]
    with record_spans() as rec:
        run_experiment(skewed_topology(nodes, seed=7), spec, seed=3)
    assert Counter(r["name"] for r in rec.records) == Counter(phases)

    seeds = [1, 2, 3]
    with ResultStore(tmp_path / "store.db") as store:
        with record_spans() as rec:
            run_cell({"mrai": 0.5}, seeds, nodes=nodes, jobs=1, store=store)
    per_trial = [
        "topology.build",
        "store.spec_hash",
        "store.get",
        "trial.execute",
        *phases,
        "store.put",
    ]
    per_batch = [
        "campaign.run",
        "campaign.expand",
        "campaign.attempt",
        "campaign.fold",
    ]
    assert Counter(r["name"] for r in rec.records) == Counter(
        per_trial * len(seeds) + per_batch
    )


def test_figure_grid_is_one_campaign_run_and_no_trials_run(tmp_path):
    """A figure's grid runs through ``run_campaign``: with a store, one
    ``campaign.run`` / ``campaign.expand`` / ``campaign.fold`` per grid,
    never the one-cell ``trials.run``, and one campaign row per grid."""
    import dataclasses

    from repro.figures import FIGURES, QUICK, compute_figure
    from repro.store.result_store import ResultStore

    profile = dataclasses.replace(
        QUICK, name="spans", nodes=16, fractions=(0.1,)
    )
    [grid] = FIGURES["fig01"].grids(profile)
    with ResultStore(tmp_path / "store.db") as store:
        with record_spans() as rec:
            compute_figure("fig01", profile, store=store)
        assert len(list(store.iter_campaigns(grid.name))) == 1
    names = Counter(r["name"] for r in rec.records)
    assert (
        names["campaign.run"],
        names["campaign.expand"],
        names["campaign.fold"],
        names["trials.run"],
    ) == (1, 1, 1, 0)
    assert names["trial.execute"] == grid.total_trials


def test_hot_path_calls_the_language_not_wrappers():
    """Interpreter calls per executed event, as a count (cProfile of one
    20-node ``fifo`` trial).

    The per-event wrappers the event loop and the speaker used to go
    through — ``Event.__lt__``, the ``now`` / ``enabled`` properties,
    ``Counter.incr``, ``AdjRibIn.best_candidate`` — must not come back as
    frames of ``repro/``; the event queue's ``__len__`` / ``peek_time``
    run a constant number of times per ``Simulator.run()``
    (two runs per trial) with one ``pop_due`` per event; and the total
    stays under a bound: 29.0 calls per event on 3.11 with pending MRAI
    work as one flag per destination (30.2 with ``pending`` sets, 32.8
    with a dict of ``Route`` objects as the Loc-RIB, 35.8 on 3.10-3.13
    with a dest-major Adj-RIB-In of ``Route`` objects, 62.3 before the
    wrappers went).  A ``<=`` because comprehension inlining moves the
    exact number between interpreter versions.  ``-s`` prints the numbers.
    """
    import cProfile
    import pstats

    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    topology = skewed_topology(20, seed=7)
    profile = cProfile.Profile()
    profile.enable()
    result = run_experiment(topology, spec, seed=3)
    profile.disable()
    stats = pstats.Stats(profile)
    frames = Counter()  # by function name, over every repro/ file
    queue = Counter()  # the same, sim/events.py only
    for (filename, _, name), (_, ncalls, *_) in stats.stats.items():
        if "repro" in filename:
            frames[name] += ncalls
            if filename.endswith("events.py"):
                queue[name] += ncalls
    gone = {
        name: frames[name]
        for name in ("__lt__", "now", "enabled", "incr", "best_candidate")
    }
    per_run = {name: queue[name] for name in ("__len__", "peek_time")}
    per_event = stats.total_calls / result.events_executed
    print(
        f"\n{stats.total_calls} calls / {result.events_executed} events = "
        f"{per_event:.2f} per event; never: {gone}; per run: {per_run}; "
        f"pop_due {queue['pop_due']}"
    )
    assert not any(gone.values())
    runs = 2  # warm-up and convergence, each followed by one is_quiescent()
    assert all(n <= runs for n in per_run.values())
    assert queue["pop_due"] == result.events_executed + runs
    assert per_event <= 40.0


# ----------------------------------------------------------------------
# Worker round-trip under jobs > 1
# ----------------------------------------------------------------------
def test_span_worker_round_trip_parallel():
    cell = dict(
        scheme={"mrai": 0.5}, seeds=[1, 2, 3, 4], nodes=12, failure=0.2
    )
    seeds = cell["seeds"]
    obs = ObsSession(spans=True)
    before = pool_stats()
    with record_spans(obs.span_recorder):
        parallel = run_cell(**cell, jobs=2, obs=obs)
    moved = {k: v - before[k] for k, v in pool_stats().items()}
    serial = run_cell(**cell, jobs=1)
    # Observability never perturbs the simulation.
    assert parallel.trials == serial.trials

    rec = obs.span_recorder
    worker = [r for r in rec.records if r["path"].startswith("workers/")]
    # One trial.execute (with its three phases) per seed, all grafted.
    executes = [r for r in worker if r["name"] == "trial.execute"]
    assert len(executes) == len(seeds)
    assert {r["attrs"]["seed"] for r in executes} == set(seeds)
    assert all(
        r["path"] == "workers/trial.execute" for r in executes
    )
    warmups = [r for r in worker if r["name"] == "trial.warmup"]
    assert len(warmups) == len(seeds)
    assert all(
        r["path"] == "workers/trial.execute/trial.warmup" for r in warmups
    )
    # Worker spans carry worker pids; parent spans carry the parent's.
    assert all(r["pid"] != rec.pid for r in worker)
    parent_names = {
        r["name"] for r in rec.records if not r["path"].startswith("workers/")
    }
    assert {"campaign.run", "pool.run", "pool.submit", "pool.collect",
            "campaign.fold", "obs.absorb"} <= parent_names
    # The pool span carries what the run moved the pool's counters by,
    # under their own names (spin-up cost included).
    pool = next(r for r in rec.records if r["name"] == "pool.run")
    assert pool["attrs"]["jobs"] == 2
    assert pool["attrs"]["spinup_seconds"] >= 0.0
    del moved["workers_alive"]
    assert pool["attrs"] == {"jobs": 2, **moved}
    assert (moved["runs"], moved["tasks"]) == (1, len(seeds))
    # Everything survives a manifest/export round-trip.
    summary = obs.finalize(kind="test", command="test")
    assert summary.extra["spans"]["count"] == len(rec.records)


def test_store_spans_record_hits_and_misses(tmp_path):
    from repro.store.result_store import ResultStore

    cell = dict(scheme={"mrai": 0.5}, seeds=[1, 2], nodes=10, failure=0.2)
    with ResultStore(tmp_path / "store.db") as store:
        with record_spans() as rec:
            run_cell(**cell, jobs=1, store=store)
        gets = [r for r in rec.records if r["name"] == "store.get"]
        assert gets and all(r["attrs"]["hit"] is False for r in gets)
        assert sum(1 for r in rec.records if r["name"] == "store.put") == 2
        assert any(r["name"] == "store.spec_hash" for r in rec.records)
        with record_spans() as rec2:
            run_cell(**cell, jobs=1, store=store)
        hits = [r for r in rec2.records if r["name"] == "store.get"]
        assert hits and all(r["attrs"]["hit"] is True for r in hits)
        assert not any(r["name"] == "store.put" for r in rec2.records)
