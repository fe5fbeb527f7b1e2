"""Tests for the shared figure-harness infrastructure."""

import pytest

from repro.core.sweep import Series
from repro.figures import FIGURES, compute_figure
from repro.figures.common import (
    QUICK,
    ScaleProfile,
    mrai_cells,
    skewed_factory,
)
from repro.obs.session import ObsSession
from repro.obs.spans import SpanRecorder, record_spans
from repro.store import ResultStore


def tiny_profile(**overrides):
    defaults = dict(
        name="tiny-common",
        nodes=16,
        seeds=(1,),
        fractions=(0.125, 0.25),
        mrai_grid=(0.5, 2.25),
        mrai_three=(0.5, 1.25, 2.25),
        dynamic_levels=(0.5, 2.25),
        fig3_fractions=(0.125, 0.25),
        multirouter_ases=6,
    )
    defaults.update(overrides)
    return ScaleProfile(**defaults)


def banked_keys(store):
    return sorted(key for key, _trial in store.iter_trials())


def test_every_figure_plans_without_running_a_trial():
    profile = tiny_profile(name="plan-only")
    recorder = SpanRecorder()
    with record_spans(recorder):
        planned = {fid: fig.grids(profile) for fid, fig in FIGURES.items()}
    assert "trials.run" not in {r["name"] for r in recorder.records}
    for fid, grids in planned.items():
        assert grids, fid
        for factory, cells, x_name in grids:
            assert callable(factory)
            assert x_name in ("failure_fraction", "mrai")
            assert cells, fid
            points = [(label, x) for label, x, _spec in cells]
            assert len(set(points)) == len(points), fid


def test_figure_banks_into_whichever_store_it_is_handed(tmp_path):
    # Replaces the (figure, profile) memo: a second call used to be
    # served from it and bank nothing into the new store.
    profile = tiny_profile(name="two-stores")
    with ResultStore(tmp_path / "a.db") as a, ResultStore(
        tmp_path / "b.db"
    ) as b:
        first = compute_figure("fig01", profile, store=a)
        second = compute_figure("fig01", profile, store=b)
        assert len(a) == len(b) == 6
        assert banked_keys(a) == banked_keys(b)
    assert [s.delays for s in first.series] == [s.delays for s in second.series]


def test_figure_is_observed_by_whichever_session_it_is_handed():
    profile = tiny_profile(name="two-sessions")
    sessions = [ObsSession(), ObsSession()]
    for obs in sessions:
        compute_figure("fig01", profile, obs=obs)
    assert [len(obs.trial_snapshots) for obs in sessions] == [6, 6]


def test_figures_share_trials_through_the_store(tmp_path):
    profile = tiny_profile(name="shared")
    with ResultStore(tmp_path / "store.db") as store:
        fig01 = compute_figure("fig01", profile, store=store)
        assert (store.hits, store.misses) == (0, 6)
        fig02 = compute_figure("fig02", profile, store=store)
        assert (store.hits, store.misses) == (6, 6)  # 0 trials executed
    assert fig01.metrics == ("delay",) and fig02.metrics == ("messages",)
    assert [s.message_counts for s in fig02.series] == [
        s.message_counts for s in fig01.series
    ]


def test_dataplane_figure_ignores_trials_banked_without_the_monitor(tmp_path):
    # Fig 7 and Fig DP1 run the same grid; Fig 7's banked trials carry no
    # data-plane summary, so serving them would print 0.00 unreachability
    # in every cell and pass every check vacuously.
    profile = tiny_profile(name="warmed")
    with ResultStore(tmp_path / "empty.db") as empty:
        cold = compute_figure("figdp01", profile, store=empty)
    with ResultStore(tmp_path / "warmed.db") as warmed:
        compute_figure("fig07", profile, store=warmed)
        assert (warmed.hits, warmed.misses) == (0, 8)
        warm = compute_figure("figdp01", profile, store=warmed)
        assert (warmed.hits, warmed.misses) == (0, 16)
        assert len(warmed) == 8  # overwritten under the same keys
        # The superset records now serve both figures.
        compute_figure("fig07", profile, store=warmed)
        compute_figure("figdp01", profile, store=warmed)
        assert (warmed.hits, warmed.misses) == (16, 16)
    unreachables = [s.unreachables for s in warm.series]
    assert unreachables == [s.unreachables for s in cold.series]
    assert all(u > 0 for curve in unreachables for u in curve)


def test_three_mrai_sweep_covers_all_fractions():
    profile = tiny_profile(name="fraction-cover")
    series = compute_figure("fig01", profile).series
    assert [s.label for s in series] == [
        "MRAI=0.5s",
        "MRAI=1.25s",
        "MRAI=2.25s",
    ]
    for s in series:
        assert s.xs == list(profile.fractions)
        assert all(d > 0 for d in s.delays)


def test_batching_scheme_sweep_layout():
    profile = tiny_profile(name="batching-layout")
    series = compute_figure("fig10", profile).series
    labels = [s.label for s in series]
    assert labels == [
        "MRAI=0.5s",
        "MRAI=2.25s",
        "dynamic",
        "batching",
        "batch+dynamic",
    ]
    assert all(isinstance(s, Series) for s in series)


def test_series_for_mrai_grid_uses_profile_grid_by_default():
    profile = tiny_profile(name="grid-default")
    cells = mrai_cells(profile, "x", 0.25, queue_discipline="dest_batch")
    assert [(label, x) for label, x, _spec in cells] == [
        ("x", value) for value in profile.mrai_grid
    ]
    for _label, value, spec in cells:
        assert spec.mrai.name == f"mrai={value:g}s"
        assert spec.failure_fraction == 0.25
        assert spec.queue_discipline == "dest_batch"


def test_skewed_factory_deterministic_per_seed():
    factory = skewed_factory(QUICK)
    a = factory(3)
    b = factory(3)
    assert sorted(l.endpoints() for l in a.links) == sorted(
        l.endpoints() for l in b.links
    )


def test_profile_is_hashable_and_frozen():
    profile = tiny_profile(name="frozen")
    hash(profile)
    with pytest.raises(AttributeError):
        profile.nodes = 99
