"""Tests for resumable campaigns (repro.store.campaign).

Headline properties: a resumed campaign executes exactly the missing
trials; cached, fresh, serial and pooled runs fold bit-identically to a
plain uncached sweep; worker failures retry per-trial instead of
aborting siblings; and export refuses partial grids.
"""

import dataclasses
import itertools
import os
import sqlite3

import pytest

import repro.core.batch as batch_mod
import repro.core.parallel as parallel_mod
from repro.core.sweep import point_spec
from repro.figures import FIGURES
from repro.figures.common import QUICK
from repro.obs.session import ObsSession
from repro.specs import build_spec
from repro.store import (
    Campaign,
    CampaignError,
    ResultStore,
    campaign_keys,
    campaign_status,
    load_campaign_results,
    run_campaign,
)

CAMPAIGN = {
    "name": "unit",
    "topology": {"kind": "skewed", "nodes": 24, "distribution": "70-30"},
    "schemes": {
        "fifo-0.5": {"mrai": 0.5},
        "dynamic": {"mrai_scheme": "dynamic", "levels": [0.5, 1.25, 2.25]},
    },
    "axis": {"name": "failure_fraction", "values": [0.1, 0.2]},
    "seeds": [1, 2],
}


def make_campaign(**overrides):
    data = dict(CAMPAIGN)
    data.update(overrides)
    return Campaign.from_dict(data)


def series_signature(series_list):
    return sorted(
        (s.label, s.delays, s.message_counts) for s in series_list
    )


def delete_trials(store, count):
    conn = sqlite3.connect(str(store.path))
    conn.execute(
        "DELETE FROM trials WHERE key IN "
        f"(SELECT key FROM trials LIMIT {count})"
    )
    conn.commit()
    conn.close()


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


# ----------------------------------------------------------------------
# Declarative round trip and validation
# ----------------------------------------------------------------------
def test_campaign_roundtrips_through_json(tmp_path):
    campaign = make_campaign(store="results/x.db")
    path = campaign.save(tmp_path / "c.json")
    loaded = Campaign.from_file(path)
    assert loaded.to_dict() == campaign.to_dict()
    assert loaded.store_path == "results/x.db"


def test_seeds_expand_from_master_count():
    a = make_campaign(seeds={"master": 7, "count": 3})
    b = make_campaign(seeds={"master": 7, "count": 3})
    assert a.seeds == b.seeds
    assert len(set(a.seeds)) == 3
    assert a.seeds != make_campaign(seeds={"master": 8, "count": 3}).seeds


def test_tasks_enumerate_in_scheme_x_seed_order():
    campaign = make_campaign()
    tasks = campaign_keys(campaign)
    assert len(tasks) == campaign.total_trials == 8
    assert [(t.label, t.x, t.seed) for t in tasks[:4]] == [
        ("fifo-0.5", 0.1, 1),
        ("fifo-0.5", 0.1, 2),
        ("fifo-0.5", 0.2, 1),
        ("fifo-0.5", 0.2, 2),
    ]


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"axis": {"name": "bogus", "values": [1]}}, "unknown axis"),
        ({"schemes": {}}, "at least one scheme"),
        ({"seeds": []}, "at least one seed"),
        ({"axis": {"name": "failure_fraction", "values": []}}, "axis value"),
    ],
)
def test_campaign_validation(overrides, match):
    with pytest.raises(ValueError, match=match):
        make_campaign(**overrides)


#: Documents of the wrong *shape* — what a hand-written file or a
#: ``/submit`` body can contain — and the field the error must name.
MALFORMED = [
    ([1, 2], "JSON object"),
    (dict(CAMPAIGN, axis={"name": "mrai"}), "'axis'"),
    (dict(CAMPAIGN, seeds={"master": 1}), "'seeds'"),
    (dict(CAMPAIGN, seeds=[None]), "seeds"),
    (dict(CAMPAIGN, schemes=[1]), "'schemes'"),
    (dict(CAMPAIGN, schemes={"a": 3}), "'schemes'"),
    (dict(CAMPAIGN, topology=5), "'topology'"),
    (dict(CAMPAIGN, topology={"kind": "skwed"}), "unknown topology kind"),
    (dict(CAMPAIGN, topology={"kind": "skewed", "nodse": 120}), "nodse"),
    (
        dict(CAMPAIGN, topology={"kind": "internet", "distribution": "70-30"}),
        "distribution",
    ),
    (dict(CAMPAIGN, topology={"distribution": "99-1"}), "unknown distr"),
    (dict(CAMPAIGN, topology={"nodes": 24.0}), "nodes must be an integer"),
    (dict(CAMPAIGN, topology={"seed": "1"}), "seed must be an integer"),
    # Well-formed, but a point or topology the run could not build.
    (
        dict(CAMPAIGN, axis={"name": "failure_fraction", "values": [0.9]}),
        "failure_fraction must be in",
    ),
    (
        dict(CAMPAIGN, axis={"name": "mrai", "values": [-1]}),
        "MRAI must be non-negative",
    ),
    (
        dict(CAMPAIGN, topology={"kind": "skewed", "nodes": 0}),
        "nodes must be at least 2",
    ),
    (
        dict(CAMPAIGN, topology={"kind": "multirouter", "nodes": 2}),
        "nodes must be at least 3",
    ),
    # Seeds and axis values are parsed, not coerced, and never repeat.
    (dict(CAMPAIGN, seeds=[1.7]), "must be an integer, got 1.7"),
    (dict(CAMPAIGN, seeds=[True]), "must be an integer, got True"),
    (dict(CAMPAIGN, seeds={"master": 1.5, "count": 2}), "seeds.master"),
    (dict(CAMPAIGN, seeds={"count": "3"}), "seeds.count"),
    (dict(CAMPAIGN, seeds=[1, 1]), "seeds must be distinct"),
    (
        dict(CAMPAIGN, axis={"name": "failure_fraction", "values": ["0.1"]}),
        "must be a number, got '0.1'",
    ),
    (
        dict(CAMPAIGN, axis={"name": "mrai", "values": [0.5, 0.5]}),
        "axis values must be distinct",
    ),
    # Python's json reads NaN and Infinity; no spec field takes them.
    (
        dict(CAMPAIGN, axis={"name": "mrai", "values": [float("nan")]}),
        "must be finite, got nan",
    ),
    (
        dict(CAMPAIGN, axis={"name": "mrai", "values": [float("inf")]}),
        "must be finite, got inf",
    ),
    (
        dict(CAMPAIGN, schemes={"a": {"mrai": float("nan")}}),
        "mrai must be finite",
    ),
    (
        dict(CAMPAIGN, schemes={"a": {"max_convergence_time": float("inf")}}),
        "max_convergence_time must be finite",
    ),
    # The name becomes a file name on export; the store is a path.
    (dict(CAMPAIGN, name="a/b"), "'name'"),
    (dict(CAMPAIGN, name="a\\b"), "'name'"),
    (dict(CAMPAIGN, name=""), "'name'"),
    (dict(CAMPAIGN, name=".."), "'name'"),
    (dict(CAMPAIGN, name=5), "'name'"),
    (dict(CAMPAIGN, store=5), "'store'"),
    (dict(CAMPAIGN, store=""), "'store'"),
    (dict(CAMPAIGN, store=["a"]), "'store'"),
]


@pytest.mark.parametrize("document, field", MALFORMED)
def test_malformed_document_is_a_value_error_naming_the_field(
    document, field
):
    """Not the KeyError / AttributeError / TypeError of whichever line
    first trips over it: ValueError is what every caller handles."""
    with pytest.raises(ValueError, match=field):
        Campaign.from_dict(document)


def test_a_non_finite_mrai_is_refused_however_the_grid_is_built():
    # A Campaign built in code skips the document parser; the point's
    # ConstantMRAI refuses the value itself.
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="MRAI must be non-negative and"):
            Campaign(
                name="code",
                topology={"kind": "skewed", "nodes": 24},
                schemes={"a": {}},
                axis="mrai",
                values=[value],
                seeds=[1],
            )


def test_build_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scheme keys"):
        build_spec({"mrai": 0.5, "mria": 2.0})
    with pytest.raises(ValueError, match="unknown mrai_scheme"):
        build_spec({"mrai_scheme": "quantum"})


def test_topology_factory_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown distribution"):
        make_campaign(
            topology={"kind": "skewed", "nodes": 24, "distribution": "99-1"}
        ).topology_factory()
    with pytest.raises(ValueError, match="unknown topology kind"):
        make_campaign(topology={"kind": "torus"}).topology_factory()


GAO_REXFORD = {
    "topology": {"kind": "skewed", "nodes": 30},
    "schemes": {
        "gao-rexford": {
            "mrai": 0.5,
            "policy": {"kind": "gao-rexford", "infer": "hierarchical"},
        }
    },
}


def test_inferred_relationships_need_one_topology():
    # Relationships inferred from the seed-1 topology label 9 of the
    # seed-2 topology's 58 links; the rest would default to peer.
    with pytest.raises(ValueError, match="'gao-rexford'.*pin it with 'seed'"):
        make_campaign(**GAO_REXFORD)
    assert make_campaign(**GAO_REXFORD, seeds=[2]).total_trials == 2
    pinned = dict(GAO_REXFORD["topology"], seed=1)
    planned = campaign_keys(
        make_campaign(**dict(GAO_REXFORD, topology=pinned))
    )
    assert [t.seed for t in planned] == [1, 2, 1, 2]
    assert len({t.digest for t in planned}) == 1
    for trial in planned:
        topo = trial.topology
        labelled = {
            (a, b) for a, b, _rel in trial.spec.policy.relationships.items()
        }
        assert all(
            (topo.as_of(link.a), topo.as_of(link.b)) in labelled
            for link in topo.links
        )


def test_adaptive_schemes_still_resolve_against_the_first_seed():
    # Their resolved parameters are scalars, valid on any topology.
    campaign = make_campaign(
        schemes={"adaptive": {"mrai_scheme": "adaptive"}}
    )
    assert len({t.digest for t in campaign_keys(campaign)}) == 2


def test_pinned_topology_is_built_at_the_pinned_seed():
    block = {"kind": "skewed", "nodes": 24}
    unpinned = make_campaign(topology=block, seeds=[3])
    pinned = make_campaign(topology=dict(block, seed=3), seeds=[1, 2])
    assert {t.digest for t in campaign_keys(pinned)} == {
        t.digest for t in campaign_keys(unpinned)
    }


# ----------------------------------------------------------------------
# Run / resume / warm: only the missing trials execute
# ----------------------------------------------------------------------
def test_cold_resume_warm_cycle(store):
    campaign = make_campaign()
    cold = run_campaign(campaign, store)
    assert cold.executed == 8 and cold.cache_hits == 0
    assert len(store) == 8

    delete_trials(store, 3)
    assert campaign_status(campaign, store).missing == 3

    resumed = run_campaign(campaign, store)
    assert resumed.executed == 3 and resumed.cache_hits == 5

    warm = run_campaign(campaign, store)
    assert warm.executed == 0 and warm.cache_hit_rate == 1.0

    assert (
        series_signature(cold.series)
        == series_signature(resumed.series)
        == series_signature(warm.series)
    )
    status = campaign_status(campaign, store)
    assert status.complete
    assert len(status.history) == 3
    assert [r["manifest"]["executed"] for r in status.history] == [8, 3, 0]


def failure_grid():
    return make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1, 0.2]},
    )


def mrai_grid():
    return make_campaign(
        schemes={"any": {"mrai": 99.0, "failure_fraction": 0.1}},
        axis={"name": "mrai", "values": [0.5, 2.0]},
    )


def mrai_three_grid():
    profile = dataclasses.replace(
        QUICK, name="unit", nodes=24, seeds=(1, 2), fractions=(0.1, 0.2)
    )
    [grid] = FIGURES["fig01"].grids(profile)
    return grid


#: (delays, message_counts) per series, recorded from the per-point
#: run_trials loops these grids used before they became one batch.
SWEEP_GOLDEN = {
    "failure": [
        ([1.531314812944769, 1.3260964622243931], [511.5, 564.5]),
    ],
    "mrai": [
        ([1.531314812944769, 3.1217268077034843], [511.5, 328.5]),
    ],
    "mrai_three": [
        ([1.531314812944769, 1.3260964622243931], [511.5, 564.5]),
        ([3.372416931262919, 1.889199345642957], [469.0, 399.5]),
        ([3.3882109456529834, 3.347130629816788], [317.0, 380.0]),
    ],
}


def test_campaign_matches_uncached_sweep(tmp_path):
    grids = {
        "failure": failure_grid,
        "mrai": mrai_grid,
        "mrai_three": mrai_three_grid,
    }
    for (name, grid), jobs in itertools.product(grids.items(), (1, 2)):
        campaign = grid()
        storeless = run_campaign(campaign, jobs=jobs)
        with ResultStore(tmp_path / f"{name}-{jobs}.db") as store:
            stored = run_campaign(campaign, store, jobs=jobs)
            assert len(store) == campaign.total_trials
        for result in (storeless, stored):
            assert result.executed == campaign.total_trials
            assert [
                (s.delays, s.message_counts) for s in result.series
            ] == SWEEP_GOLDEN[name], (name, jobs)
        assert [(s.label, s.xs) for s in stored.series] == [
            (s.label, s.xs) for s in storeless.series
        ]


@pytest.mark.parametrize(
    "axis, x", [("failure_fraction", 0.2), ("mrai", 2.0)]
)
def test_every_driver_derives_a_point_the_same_way(axis, x):
    # A campaign file, a /submit body and a figure grid are all one
    # Campaign: its cells, and the plan run_campaign and the service
    # run, hold point_spec's spec for every point.
    from repro.service.submission import submission_campaign

    scheme = {"mrai": 0.5, "failure_fraction": 0.1, "queue": "dest_batch"}
    expected = point_spec(build_spec(scheme), axis, x)
    assert expected != build_spec(scheme)
    document = dict(
        CAMPAIGN, schemes={"s": scheme}, axis={"name": axis, "values": [x]}
    )
    for campaign in (
        Campaign.from_dict(document),
        submission_campaign(document),
    ):
        assert campaign.cells() == [("s", x, expected)]
        assert [t.spec for t in campaign_keys(campaign)] == [expected] * 2
    with pytest.raises(ValueError, match="unknown axis"):
        point_spec(expected, "bogus", x)


def test_parallel_campaign_matches_serial(tmp_path):
    campaign = make_campaign()
    with ResultStore(tmp_path / "serial.db") as s1:
        serial = run_campaign(campaign, s1)
    with ResultStore(tmp_path / "pool.db") as s2:
        pooled = run_campaign(campaign, s2, jobs=2)
        assert pooled.executed == 8
        assert len(s2) == 8
    assert series_signature(serial.series) == series_signature(pooled.series)


def test_run_campaign_opens_store_from_path(tmp_path):
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1],
        store=str(tmp_path / "own.db"),
    )
    result = run_campaign(campaign)
    assert result.executed == 1
    with ResultStore(tmp_path / "own.db") as store:
        assert len(store) == 1


def test_run_campaign_without_a_store_banks_nothing(tmp_path, monkeypatch):
    # No store and no store path: every trial executes, nothing is
    # banked anywhere and no manifest is recorded; a session still sees
    # the run.
    monkeypatch.chdir(tmp_path)
    recorded = []
    monkeypatch.setattr(
        ResultStore, "record_campaign",
        lambda self, *args: recorded.append(args),
    )
    monkeypatch.setattr(
        ResultStore, "put", lambda self, *a, **k: recorded.append(a)
    )
    obs = ObsSession()
    result = run_campaign(make_campaign(), jobs=2, obs=obs)
    assert result.executed == 8 and result.cache_hits == 0
    assert recorded == [] and list(tmp_path.iterdir()) == []
    assert obs.registry.get("store_cache_misses") is None
    [noted] = obs.campaigns
    assert noted["manifest"]["executed"] == 8
    assert "schema_git_rev" not in noted["manifest"]


def test_obs_session_sees_campaign(store):
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1, 2],
    )
    obs = ObsSession()
    run_campaign(campaign, store, obs=obs)
    assert obs.registry.get("store_cache_misses").value == 2
    run_campaign(campaign, store, obs=obs)
    assert obs.registry.get("store_cache_hits").value == 2
    manifest = obs.finalize()
    assert [c["name"] for c in manifest.extra["campaigns"]] == ["unit", "unit"]


# ----------------------------------------------------------------------
# Retry: per-trial, bounded
# ----------------------------------------------------------------------
def flaky_executor(fail_times):
    """Wrap execute_trial to fail each trial's first ``fail_times`` calls."""
    calls = {}
    real = batch_mod.execute_trial

    def wrapped(index, *trial):
        n = calls.get(index, 0)
        calls[index] = n + 1
        if n < fail_times:
            raise RuntimeError(f"injected failure #{n + 1}")
        return real(index, *trial)

    return wrapped


def test_worker_failures_retry_until_success(store, monkeypatch):
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1, 2],
    )
    monkeypatch.setattr(
        batch_mod, "execute_trial", flaky_executor(fail_times=1)
    )
    result = run_campaign(campaign, store)
    assert result.executed == 2
    assert result.retried == 2
    assert len(store) == 2


def test_exhausted_retries_raise_campaign_error(store, monkeypatch):
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1, 2],
    )
    monkeypatch.setattr(
        batch_mod, "execute_trial", flaky_executor(fail_times=99)
    )
    with pytest.raises(CampaignError, match=r"failed after 3 attempt\(s\)"):
        run_campaign(campaign, store)
    assert len(store) == 0


def test_partial_failure_stores_the_successes(store, monkeypatch):
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1, 2],
    )
    real = batch_mod.execute_trial

    def second_trial_dies(index, *trial):
        if index == 1:
            raise RuntimeError("injected permanent failure")
        return real(index, *trial)

    monkeypatch.setattr(batch_mod, "execute_trial", second_trial_dies)
    with pytest.raises(CampaignError) as excinfo:
        run_campaign(campaign, store)
    # The healthy sibling was committed before the error surfaced ...
    assert len(store) == 1
    assert len(excinfo.value.failures) == 1
    # ... so the re-run (healed) is incremental.
    monkeypatch.setattr(batch_mod, "execute_trial", real)
    healed = run_campaign(campaign, store)
    assert healed.executed == 1 and healed.cache_hits == 1


def test_trials_commit_as_they_land_not_at_batch_end(store, monkeypatch):
    # A hard interrupt (KeyboardInterrupt is not caught by the retry
    # machinery) mid-batch must lose only the in-flight trial — earlier
    # completions were already committed, which is what makes Ctrl-C'd
    # campaigns resumable.
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1, 2, 3],
    )
    real = batch_mod.execute_trial

    def interrupt_third(index, *trial):
        if index == 2:
            raise KeyboardInterrupt
        return real(index, *trial)

    monkeypatch.setattr(batch_mod, "execute_trial", interrupt_third)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(campaign, store)
    assert len(store) == 2

    monkeypatch.setattr(batch_mod, "execute_trial", real)
    resumed = run_campaign(campaign, store)
    assert resumed.executed == 1 and resumed.cache_hits == 2


def test_worker_killing_trial_is_retried_in_a_worker_not_the_parent(
    store, monkeypatch
):
    # A trial that takes its worker process down with it.  Its retry
    # round is a one-trial batch; at jobs=2 that round too must run on
    # the pool — in the parent, the second attempt would take the whole
    # campaign (here: the test run) down instead of failing one trial.
    if parallel_mod.default_start_method() != "fork":
        pytest.skip("the patched execute_trial reaches workers by fork")
    campaign = make_campaign(
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis={"name": "failure_fraction", "values": [0.1]},
        seeds=[1, 2],
    )
    parent = os.getpid()
    real = parallel_mod.execute_trial

    def second_trial_kills_its_process(index, *trial):
        if index == 1:
            if os.getpid() == parent:
                raise AssertionError("retried in the parent process")
            os._exit(13)
        return real(index, *trial)

    # Workers forked from here on inherit the patched module.
    parallel_mod.shutdown_worker_pool()
    monkeypatch.setattr(
        parallel_mod, "execute_trial", second_trial_kills_its_process
    )
    monkeypatch.setattr(
        batch_mod, "execute_trial", second_trial_kills_its_process
    )
    try:
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(campaign, store, jobs=2)
    finally:
        parallel_mod.shutdown_worker_pool()
    [(task, error)] = excinfo.value.failures
    assert (task.label, task.seed) == ("fifo-0.5", 2)
    assert "worker process died" in error
    assert "fifo-0.5/x=0.1/seed=2" in str(excinfo.value)
    assert len(store) == 1  # the healthy sibling was banked


# ----------------------------------------------------------------------
# Export folds from cache only, never partially
# ----------------------------------------------------------------------
def test_load_campaign_results_matches_run(store):
    campaign = make_campaign()
    live = run_campaign(campaign, store)
    series_list, point_results = load_campaign_results(campaign, store)
    assert series_signature(series_list) == series_signature(live.series)
    assert set(point_results) == set(live.results)


def test_load_campaign_results_refuses_partial(store):
    campaign = make_campaign()
    run_campaign(campaign, store)
    delete_trials(store, 2)
    with pytest.raises(CampaignError, match="2/8 trials missing"):
        load_campaign_results(campaign, store)
