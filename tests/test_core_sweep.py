"""Tests for sweeps and series."""

import json

import pytest

import repro.core.batch as batch_mod
from repro.bgp.mrai import ConstantMRAI
from repro.core.experiment import ExperimentSpec
from repro.core.parallel import TrialExecutionError, get_worker_pool
from repro.core.sweep import Series, failure_size_sweep, mrai_sweep
from repro.obs.session import ObsSession
from repro.store import ResultStore
from repro.topology.skewed import skewed_topology


def factory(seed):
    return skewed_topology(24, seed=seed)


def test_failure_size_sweep_structure():
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5))
    series = failure_size_sweep(
        factory, spec, fractions=(0.1, 0.2), seeds=(1,), label="test"
    )
    assert series.label == "test"
    assert series.x_name == "failure_fraction"
    assert series.xs == [0.1, 0.2]
    assert len(series.delays) == 2
    assert all(d > 0 for d in series.delays)
    assert all(m > 0 for m in series.message_counts)


def test_failure_size_sweep_default_label_is_scheme_name():
    spec = ExperimentSpec(mrai=ConstantMRAI(1.25))
    series = failure_size_sweep(factory, spec, (0.1,), (1,))
    assert "1.25" in series.label


def test_mrai_sweep_overrides_policy():
    spec = ExperimentSpec(mrai=ConstantMRAI(99.0), failure_fraction=0.1)
    series = mrai_sweep(factory, spec, mrai_values=(0.5, 2.0), seeds=(1,))
    assert series.xs == [0.5, 2.0]
    assert series.x_name == "mrai"


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
    built = []

    def counting_factory(seed):
        built.append(seed)
        return factory(seed)

    spec = ExperimentSpec(mrai=ConstantMRAI(0.5))
    runs = get_worker_pool().stats_snapshot()["runs"]
    series = failure_size_sweep(
        counting_factory, spec, (0.05, 0.1, 0.2), (1, 2), jobs=2
    )
    assert get_worker_pool().stats_snapshot()["runs"] == runs + 1
    assert built == [1, 2]
    assert [p.result.n for p in series.points] == [2, 2, 2]


def test_store_backed_sweep_progress_ends_complete_cold_and_warm(tmp_path):
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5))
    with ResultStore(tmp_path / "store.db") as store:
        for executed in (6, 0):  # cold, then fully cached
            ticks = []
            before = len(store)
            failure_size_sweep(
                factory,
                spec,
                (0.1, 0.2),
                (1, 2, 3),
                progress=ticks.append,
                store=store,
            )
            assert len(store) - before == executed
            assert all(t.total == 6 for t in ticks)
            assert (ticks[-1].done, ticks[-1].total) == (6, 6)
            for earlier, later in zip(ticks, ticks[1:]):
                assert earlier.done <= later.done
                assert earlier.busy_seconds <= later.busy_seconds


def test_sweep_failure_names_the_failing_seed_and_plan_position(monkeypatch):
    real = batch_mod.execute_trial

    def flaky(index, topology, spec, seed, obs_config):
        if seed == 2 and spec.failure_fraction == 0.2:
            raise RuntimeError("boom")
        return real(index, topology, spec, seed, obs_config)

    monkeypatch.setattr(batch_mod, "execute_trial", flaky)
    with pytest.raises(TrialExecutionError) as exc_info:
        failure_size_sweep(
            factory,
            ExperimentSpec(mrai=ConstantMRAI(0.5)),
            (0.1, 0.2),
            (1, 2),
            jobs=1,
        )
    # Plan order is (point, seed): (0.1, 1), (0.1, 2), (0.2, 1), (0.2, 2).
    assert (exc_info.value.index, exc_info.value.seed) == (3, 2)
    assert "boom" in str(exc_info.value)


def test_observed_sweep_exports_identically_at_any_jobs(tmp_path):
    def observed(jobs):
        obs = ObsSession()
        mrai_sweep(
            factory,
            ExperimentSpec(failure_fraction=0.1),
            (0.5, 2.0),
            (1, 2),
            jobs=jobs,
            obs=obs,
        )
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
