"""Tests for the shared figure-harness infrastructure."""

import json
import pathlib

import pytest

import repro.specs.topology as topology_blocks
import repro.topology.internet as internet
from repro.analysis.export import series_to_csv
from repro.core.sweep import Series
from repro.figures import FIGURES, compute_figure
from repro.figures.common import QUICK, ScaleProfile, grid
from repro.obs.session import ObsSession
from repro.obs.spans import SpanRecorder, record_spans
from repro.store import Campaign, ResultStore, run_campaign
from repro.store.campaign import campaign_keys
from tests.conftest import stored_keys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


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


def test_every_figure_grid_is_a_campaign_document(monkeypatch):
    """What a figure declares is what ``campaign run`` and ``/submit``
    take: declaring builds no topology and runs no trial, and the JSON
    document plans the very trials the figure runs."""
    profile = tiny_profile(name="documents", seeds=(1, 2))
    recorder = SpanRecorder()
    with record_spans(recorder), monkeypatch.context() as patched:
        for module, generator in (
            (topology_blocks, "skewed_topology"),
            (internet, "internet_like_topology"),
            (topology_blocks, "multi_router_topology"),
        ):
            patched.delattr(module, generator)
        declared = {fid: fig.grids(profile) for fid, fig in FIGURES.items()}
    assert not recorder.records  # no topology.build, no trials.run
    for fid, grids in declared.items():
        assert grids, fid
        for campaign in grids:
            assert isinstance(campaign, Campaign) and campaign.name == fid
            assert campaign.seeds == [1, 2]
            document = json.loads(json.dumps(campaign.to_dict()))
            assert "store" not in document
            planned = campaign_keys(campaign)
            assert [
                (t.label, t.x, t.seed, t.key)
                for t in campaign_keys(Campaign.from_dict(document))
            ] == [(t.label, t.x, t.seed, t.key) for t in planned], fid
            points = {(t.label, t.x, t.seed) for t in planned}
            assert len(points) == len(planned) == campaign.total_trials


@pytest.mark.parametrize("figure_id", ["fig01", "ab_policy_routing"])
def test_campaign_runner_reproduces_the_figure(figure_id, tmp_path):
    # ab_policy_routing at two seeds is the pinned case: one topology
    # serves every trial seed.
    profile = tiny_profile(name="either-runner", seeds=(1, 2))
    figure = compute_figure(figure_id, profile)
    [campaign] = FIGURES[figure_id].grids(profile)
    with ResultStore(tmp_path / "store.db") as store:
        ran = run_campaign(campaign, store)
    assert ran.executed == campaign.total_trials
    assert series_to_csv(ran.series) == series_to_csv(figure.series)


def test_committed_campaign_file_is_fig01_at_quick_scale():
    document = json.loads(
        (EXAMPLES / "campaigns" / "fig01_quick.json").read_text("utf-8")
    )
    assert document == FIGURES["fig01"].grids(QUICK)[0].to_dict()


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
        assert stored_keys(a) == stored_keys(b)
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
    scheme = {"failure_fraction": 0.25, "queue": "dest_batch"}
    cells = grid("g", profile, {"x": scheme}, axis="mrai").cells()
    assert [(label, x) for label, x, _spec in cells] == [
        ("x", value) for value in profile.mrai_grid
    ]
    for _label, value, spec in cells:
        assert spec.mrai.name == f"mrai={value:g}s"
        assert spec.failure_fraction == 0.25
        assert spec.queue_discipline == "dest_batch"


def test_topology_factory_deterministic_per_seed():
    factory = grid("g", QUICK, "mrai_three").topology_factory()
    a = factory(3)
    b = factory(3)
    assert a is not b
    assert sorted(l.endpoints() for l in a.links) == sorted(
        l.endpoints() for l in b.links
    )
    assert sorted(l.endpoints() for l in factory(4).links) != sorted(
        l.endpoints() for l in a.links
    )


def test_profile_is_hashable_and_frozen():
    profile = tiny_profile(name="frozen")
    hash(profile)
    with pytest.raises(AttributeError):
        profile.nodes = 99
