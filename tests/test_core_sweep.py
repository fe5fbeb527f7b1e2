"""Tests for series and the grids behind them.

A grid of cells x seeds runs as one campaign
(:func:`repro.store.campaign.run_campaign`); these pin what its series
look like, how it runs on the pool, what it reports and how it fails.
"""

import json

import pytest

import repro.core.batch as batch_mod
from repro.core.parallel import get_worker_pool
from repro.core.sweep import Series
from repro.obs.session import ObsSession
from repro.obs.spans import record_spans
from repro.store import Campaign, ResultStore, run_campaign
from repro.store.campaign import CampaignError

TOPOLOGY = {"kind": "skewed", "nodes": 24}


def grid(schemes, axis, values, seeds):
    return Campaign(
        name="grid",
        topology=TOPOLOGY,
        schemes=schemes,
        axis=axis,
        values=list(values),
        seeds=list(seeds),
    )


def failure_grid(values, seeds, label="fifo-0.5"):
    return grid({label: {"mrai": 0.5}}, "failure_fraction", values, seeds)


def test_failure_size_sweep_structure():
    [series] = run_campaign(failure_grid((0.1, 0.2), (1,), "test")).series
    assert series.label == "test"
    assert series.x_name == "failure_fraction"
    assert series.xs == [0.1, 0.2]
    assert len(series.delays) == 2
    assert all(d > 0 for d in series.delays)
    assert all(m > 0 for m in series.message_counts)


def test_mrai_sweep_overrides_policy():
    campaign = grid(
        {"any": {"mrai": 99.0, "failure_fraction": 0.1}},
        "mrai",
        (0.5, 2.0),
        (1,),
    )
    [series] = run_campaign(campaign).series
    assert series.xs == [0.5, 2.0]
    assert series.x_name == "mrai"
    assert [p.result.spec.mrai.value for p in series.points] == [0.5, 2.0]


def test_series_lookup_and_argmin():
    series = Series(label="s", x_name="x")

    class FakeResult:
        def __init__(self, delay, msgs):
            self.mean_delay = delay
            self.mean_messages = msgs

    series.add(1.0, FakeResult(10.0, 100))
    series.add(2.0, FakeResult(5.0, 50))
    series.add(3.0, FakeResult(7.0, 70))
    assert series.delay_at(2.0) == 5.0
    assert series.messages_at(3.0) == 70
    with pytest.raises(KeyError):
        series.delay_at(9.0)
    with pytest.raises(KeyError):
        series.messages_at(9.0)


def test_sweep_is_one_pool_run_with_one_topology_per_seed():
    campaign = failure_grid((0.05, 0.1, 0.2), (1, 2))
    runs = get_worker_pool().stats_snapshot()["runs"]
    with record_spans() as rec:
        [series] = run_campaign(campaign, jobs=2).series
    assert get_worker_pool().stats_snapshot()["runs"] == runs + 1
    builds = [
        r["attrs"]["seed"]
        for r in rec.records
        if r["name"] == "topology.build"
    ]
    assert builds == [1, 2]
    assert [p.result.n for p in series.points] == [2, 2, 2]


def test_store_backed_sweep_progress_ends_complete_cold_and_warm(tmp_path):
    campaign = failure_grid((0.1, 0.2), (1, 2, 3))
    with ResultStore(tmp_path / "store.db") as store:
        for executed in (6, 0):  # cold, then fully cached
            seen = []
            before = len(store)
            run_campaign(campaign, store, on_outcome=seen.append)
            assert len(store) - before == executed
            # Every trial of the grid settles once: executed cold,
            # served by the store warm.
            assert sorted(o.index for o in seen) == list(range(6))
            assert [o.cached for o in seen] == [executed == 0] * 6
            assert all(o.trial is not None for o in seen)


def test_sweep_failure_names_the_failing_seed_and_plan_position(monkeypatch):
    real = batch_mod.execute_trial

    def flaky(index, topology, spec, seed, obs_config):
        if seed == 2 and spec.failure_fraction == 0.2:
            raise RuntimeError("boom")
        return real(index, topology, spec, seed, obs_config)

    monkeypatch.setattr(batch_mod, "execute_trial", flaky)
    with pytest.raises(CampaignError) as exc_info:
        run_campaign(failure_grid((0.1, 0.2), (1, 2)))
    # Plan order is (point, seed): (0.1, 1), (0.1, 2), (0.2, 1), (0.2, 2).
    [(trial, error)] = exc_info.value.failures
    assert (trial.label, trial.x, trial.seed) == ("fifo-0.5", 0.2, 2)
    assert "boom" in error
    assert "fifo-0.5/x=0.2/seed=2: RuntimeError: boom" in str(exc_info.value)


def test_observed_sweep_exports_identically_at_any_jobs(tmp_path):
    schemes = {"delay-vs-mrai": {"failure_fraction": 0.1}}
    campaign = grid(schemes, "mrai", (0.5, 2.0), (1, 2))

    def observed(jobs):
        obs = ObsSession()
        run_campaign(campaign, jobs=jobs, obs=obs)
        obs.export(tmp_path / f"jobs{jobs}")
        records = [
            json.loads(line)
            for line in (tmp_path / f"jobs{jobs}" / "metrics.jsonl")
            .read_text()
            .splitlines()
        ]
        for record in records:  # host timing noise, not simulation state
            record.pop("warmup_wall", None)
            record.pop("convergence_wall", None)
        return obs, records

    serial_obs, serial_records = observed(1)
    parallel_obs, parallel_records = observed(2)
    assert parallel_records == serial_records
    assert [p.name for p in parallel_obs.phases] == [
        p.name for p in serial_obs.phases
    ]
    trials = [r for r in parallel_records if r.get("kind") == "trial"]
    assert [(r["trial"], r["seed"]) for r in trials] == [
        (0, 1), (1, 2), (2, 1), (3, 2)
    ]


def test_fold_lists_each_points_trials_in_campaign_seed_order():
    # Per-seed values are read straight off the fold: every point's
    # trials, in the campaign's seed order, whatever order they ran in.
    seeds = [3, 1, 2]
    schemes = {"a": {"mrai": 0.5}, "b": {"mrai": 2.25}}
    campaign = grid(schemes, "failure_fraction", (0.1, 0.2), seeds)
    for jobs in (1, 2):
        result = run_campaign(campaign, jobs=jobs)
        for series in result.series:
            for point in series.points:
                assert [t.seed for t in point.result.trials] == seeds
