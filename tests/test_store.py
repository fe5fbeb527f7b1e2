"""Tests for the persistent result store (repro.store.result_store).

Headline properties: put/get round-trips the full TrialResult; a
store-backed sweep is bit-identical to an uncached one whether the
trials come cold, warm, serial or from a process pool; and a store
created under another schema version refuses to open.
"""

import sqlite3
import threading

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.core.experiment import ExperimentSpec
from repro.obs.session import ObsSession
from repro.store import ResultStore, spec_fingerprint, spec_hash
from repro.store.hashing import SCHEMA_VERSION
from repro.topology.skewed import skewed_topology
from tests.conftest import run_cell

SEEDS = (1, 2, 3)


def factory(seed):
    return skewed_topology(24, seed=seed)


def spec_05():
    return ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)


def result_signature(result):
    """Every measured number, per trial (wall-clock fields excluded)."""
    return [
        (
            t.seed,
            t.convergence_delay,
            t.messages_sent,
            t.route_changes,
            t.events_executed,
        )
        for t in result.trials
    ]


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


#: ``spec_05()`` as a campaign scheme (the cell's failure fraction is 0.1).
SCHEME_05 = {"mrai": 0.5}


def one_trial():
    return run_cell(SCHEME_05, (1,)).trials[0]


# ----------------------------------------------------------------------
# Round trip + provenance
# ----------------------------------------------------------------------
def test_put_get_roundtrip(store):
    trial = one_trial()
    key = spec_hash(spec_05(), factory(1), 1)
    assert store.get(key) is None
    assert not store.has(key)

    store.put(key, trial, fingerprint=spec_fingerprint(spec_05(), factory(1), 1))
    assert store.has(key)
    assert len(store) == 1

    cached = store.get(key)
    # TrialResult equality excludes wall-clock fields, so the cached
    # trial compares equal to a freshly simulated one.
    assert cached == trial
    assert store.hits == 1 and store.misses == 1


def test_get_dataplane_misses_a_row_banked_without_the_monitor(store):
    bare = one_trial()
    store.put("k", bare)
    assert store.get("k") == bare
    assert store.get("k", dataplane=True) is None
    assert (store.hits, store.misses) == (1, 1)
    monitored = run_cell(
        SCHEME_05, (1,), obs=ObsSession(dataplane=True)
    ).trials[0]
    store.put("k", monitored)  # same key, superset record
    assert store.get("k", dataplane=True).dataplane == monitored.dataplane
    assert len(store) == 1 and (store.hits, store.misses) == (2, 1)


def test_provenance_records_writer(store):
    trial = one_trial()
    key = spec_hash(spec_05(), factory(1), 1)
    store.put(key, trial, fingerprint=spec_fingerprint(spec_05(), factory(1), 1))

    prov = store.provenance(key)
    assert prov["seed"] == trial.seed
    assert prov["run_id"] == store.run_id
    assert prov["schema_version"] == SCHEMA_VERSION
    assert prov["wall_seconds"] == trial.warmup_wall + trial.convergence_wall
    assert prov["fingerprint"]["schema"] == SCHEMA_VERSION
    assert store.provenance("no-such-key") is None
    assert store.stats()["banked_wall_seconds"] == pytest.approx(
        prov["wall_seconds"]
    )


def test_git_revision_is_probed_outside_the_store_lock(store, monkeypatch):
    """The first probe runs `git`; readers sharing the handle must not
    wait on it."""
    import repro.store.result_store as result_store

    def lock_free_from_another_thread():
        taken = []

        def probe():
            taken.append(store._lock.acquire(blocking=False))
            if taken[0]:
                store._lock.release()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        return taken[0]

    probes = []

    def fake_git_revision():
        assert lock_free_from_another_thread()
        probes.append(True)
        return "f" * 40

    monkeypatch.setattr(result_store, "git_revision", fake_git_revision)
    key = spec_hash(spec_05(), factory(1), 1)
    store.put(key, one_trial())
    store.record_campaign("demo", {"executed": 1})
    assert len(probes) == 2
    assert store.provenance(key)["git_rev"] == "f" * 40
    assert next(store.iter_campaigns("demo"))["git_rev"] == "f" * 40


def test_reopen_persists(tmp_path):
    path = tmp_path / "store.db"
    trial = one_trial()
    key = spec_hash(spec_05(), factory(1), 1)
    with ResultStore(path) as store:
        store.put(key, trial)
    with ResultStore(path) as store:
        assert store.get(key) == trial


def test_schema_version_mismatch_refused(tmp_path):
    path = tmp_path / "store.db"
    ResultStore(path).close()
    conn = sqlite3.connect(str(path))
    conn.execute(
        "UPDATE meta SET value=? WHERE key='schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(ValueError, match="schema version"):
        ResultStore(path)


def test_campaign_manifest_rows(store):
    first = store.record_campaign("demo", {"executed": 4})
    second = store.record_campaign("demo", {"executed": 0})
    store.record_campaign("other", {"executed": 1})
    assert second > first
    runs = list(store.iter_campaigns("demo"))
    assert [r["manifest"]["executed"] for r in runs] == [4, 0]
    assert len(list(store.iter_campaigns())) == 3


# ----------------------------------------------------------------------
# One-cell batch caching: cold == warm, serial == parallel, bit for bit
# ----------------------------------------------------------------------
def test_cached_run_bitwise_identical(store):
    cold = run_cell(SCHEME_05, SEEDS, store=store)
    assert store.misses == len(SEEDS) and store.hits == 0
    assert len(store) == len(SEEDS)

    warm = run_cell(SCHEME_05, SEEDS, store=store)
    assert store.hits == len(SEEDS)
    assert len(store) == len(SEEDS)

    uncached = run_cell(SCHEME_05, SEEDS)
    assert result_signature(cold) == result_signature(warm)
    assert result_signature(cold) == result_signature(uncached)
    assert warm.mean_delay == uncached.mean_delay
    assert warm.mean_messages == uncached.mean_messages


def test_parallel_run_populates_and_hits_store(store):
    cold = run_cell(SCHEME_05, SEEDS, jobs=2, store=store)
    assert len(store) == len(SEEDS)
    warm = run_cell(SCHEME_05, SEEDS, jobs=2, store=store)
    assert store.hits == len(SEEDS)
    serial = run_cell(SCHEME_05, SEEDS)
    assert result_signature(cold) == result_signature(warm)
    assert result_signature(cold) == result_signature(serial)


def test_partial_cache_mixes_cached_and_fresh(store):
    run_cell(SCHEME_05, SEEDS[:2], store=store)
    assert len(store) == 2
    mixed = run_cell(SCHEME_05, SEEDS, store=store)
    assert len(store) == len(SEEDS)
    assert result_signature(mixed) == result_signature(
        run_cell(SCHEME_05, SEEDS)
    )


def test_obs_session_counts_cache_lookups(store):
    # Each lookup is counted once, by the store handle; the session
    # carries each campaign's own hit count in its manifest.
    obs = ObsSession()
    run_cell(SCHEME_05, SEEDS, store=store, obs=obs)
    assert (store.hits, store.misses) == (0, len(SEEDS))
    run_cell(SCHEME_05, SEEDS, store=store, obs=obs)
    assert (store.hits, store.misses) == (len(SEEDS), len(SEEDS))
    manifest = obs.finalize()
    assert "store_cache" not in manifest.extra
    assert [
        (c["manifest"]["cache_hits"], c["manifest"]["total_trials"])
        for c in manifest.extra["campaigns"]
    ] == [(0, len(SEEDS)), (len(SEEDS), len(SEEDS))]


def test_a_sampled_batch_neither_reads_nor_writes_the_store(store):
    # Probe ticks are engine events, so a sampled trial is not the
    # result its key names: a sampled batch banks nothing, and on a warm
    # store it still executes every trial, so every trial has samples.
    obs = ObsSession(sample_interval=0.25)
    sampled = run_cell(SCHEME_05, SEEDS, store=store, obs=obs)
    assert len(store) == 0 and store.misses == 0
    unsampled = run_cell(SCHEME_05, SEEDS)
    assert result_signature(sampled) != result_signature(unsampled)
    cold = run_cell(SCHEME_05, SEEDS, store=store)
    assert result_signature(cold) == result_signature(unsampled)
    obs = ObsSession(sample_interval=0.25)
    warm = run_cell(SCHEME_05, SEEDS, store=store, obs=obs)
    assert len(obs.probes) == len(SEEDS)
    assert result_signature(warm) == result_signature(sampled)
    assert store.hits == 0 and len(store) == len(SEEDS)
    assert result_signature(
        run_cell(SCHEME_05, SEEDS, store=store)
    ) == result_signature(unsampled)
