"""Tests for the shared trial-batch pipeline (repro.core.batch).

``run_trials``, ``run_campaign`` and the service executor are tested
end to end elsewhere; here the loop itself runs against a stub store and
a scripted outcome stream, so ordering guarantees can be pinned exactly.
"""

import pytest

import repro.core.batch as batch_mod
from repro.core.batch import (
    BatchOutcome,
    PlannedTrial,
    plan_grid,
    run_batch,
    run_tasks,
)
from repro.core.experiment import ExperimentSpec, TrialResult
from repro.specs import TOPOLOGY_KINDS, build_spec, topology_factory
from repro.store.hashing import spec_fingerprint, spec_hash
from repro.topology.skewed import skewed_topology

TOPOLOGY = skewed_topology(8, seed=1)
SPEC = ExperimentSpec()


def fake_trial(seed):
    return TrialResult(
        convergence_delay=float(seed),
        messages_sent=seed,
        withdrawals_sent=0,
        updates_processed=0,
        stale_dropped=0,
        route_changes=0,
        failure_size=1,
        failure_time=0.0,
        warmup_time=0.0,
        warmup_messages=0,
        events_executed=0,
        seed=seed,
        truncated=False,
        warmup_wall=0.5,
        convergence_wall=0.25,
    )


def plan(seeds):
    return [
        PlannedTrial(TOPOLOGY, SPEC, seed, digest="topo", key=f"key-{seed}")
        for seed in seeds
    ]


class StubStore:
    def __init__(self, rows=()):
        self.rows = {key: trial for key, trial in rows}
        self.fingerprints = {}

    def get(self, key):
        return self.rows.get(key)

    def put(self, key, trial, fingerprint=None):
        self.rows[key] = trial
        self.fingerprints[key] = fingerprint


class StubObs:
    def __init__(self):
        self.lookups = []
        self.absorbed = []

    def note_cache(self, hit):
        self.lookups.append(hit)

    def worker_args(self):
        return {"stub": True}

    def absorb(self, record, spec, topology):
        # The record beside the data run_batch holds for it.
        assert spec is SPEC and topology == TOPOLOGY.summary()
        self.absorbed.append(record)


def scripted(monkeypatch, order=reversed, errors=()):
    """Replace run_tasks with a stream completing in ``order``; returns
    the list of index batches it was asked to run."""
    rounds = []

    def stream(planned, indices, jobs, obs_config):
        rounds.append(list(indices))
        for index in order(indices):
            if index in errors:
                yield index, None, None, "RuntimeError: scripted"
            else:
                yield index, fake_trial(planned[index].seed), {
                    "from": index
                }, None

    monkeypatch.setattr(batch_mod, "run_tasks", stream)
    return rounds


def test_hits_are_skipped_and_every_lookup_counted_once(monkeypatch):
    rounds = scripted(monkeypatch)
    store = StubStore([("key-2", fake_trial(2))])
    obs = StubObs()
    seen = []
    ticks = []
    result = run_batch(
        plan([1, 2, 3]),
        jobs=1,
        store=store,
        obs=obs,
        on_outcome=seen.append,
        progress=ticks.append,
    )
    assert rounds == [[0, 2]]  # the hit never reaches execution
    assert obs.lookups == [False, True, False]
    # Every tick says how many of its ``done`` the lookup served.
    assert [(t.done, t.cached) for t in ticks] == [(1, 1), (2, 1), (3, 1)]
    assert (result.hits, result.executed, result.retried) == (1, 2, 0)
    assert [t.seed for t in result.trials] == [1, 2, 3]
    assert seen[0] == BatchOutcome(1, trial=fake_trial(2), cached=True)
    assert [(o.index, o.cached) for o in seen[1:]] == [(2, False), (0, False)]


def test_success_is_banked_before_the_next_outcome_is_consumed(monkeypatch):
    store = StubStore()
    banked_at_yield = []

    def stream(planned, indices, jobs, obs_config):
        for index in indices:
            banked_at_yield.append(sorted(store.rows))
            yield index, fake_trial(planned[index].seed), None, None

    monkeypatch.setattr(batch_mod, "run_tasks", stream)
    banked_at_hook = []
    run_batch(
        plan([1, 2, 3]),
        jobs=1,
        store=store,
        on_outcome=lambda o: banked_at_hook.append(sorted(store.rows)),
    )
    assert banked_at_yield == [[], ["key-1"], ["key-1", "key-2"]]
    # ... and the hook already sees its own trial in the store.
    assert banked_at_hook == [
        ["key-1"],
        ["key-1", "key-2"],
        ["key-1", "key-2", "key-3"],
    ]
    assert store.fingerprints["key-1"]["seed"] == 1


def test_failures_are_returned_not_raised_and_retried_to_budget(monkeypatch):
    rounds = scripted(monkeypatch, order=list, errors={1})
    store = StubStore()
    ticks = []
    result = run_batch(
        plan([1, 2, 3]),
        jobs=1,
        store=store,
        progress=ticks.append,
    )
    assert rounds == [[0, 1, 2], [1], [1]]  # only the failure re-runs
    assert result.failures == {1: "RuntimeError: scripted"}
    assert result.trials[1] is None
    assert (result.executed, result.retried) == (2, 2)
    assert sorted(store.rows) == ["key-1", "key-3"]
    assert [t.done for t in ticks] == [1, 1, 2, 2, 2]
    assert [t.failed for t in ticks] == [0, 1, 1, 1, 1]


def test_hook_exception_abandons_the_batch(monkeypatch):
    scripted(monkeypatch, order=list, errors={1})
    store = StubStore()

    def fail_fast(outcome):
        if outcome.error is not None:
            raise LookupError(outcome.index)

    with pytest.raises(LookupError):
        run_batch(plan([1, 2, 3]), jobs=1, store=store, on_outcome=fail_fast)
    assert sorted(store.rows) == ["key-1"]  # banked before the failure


def test_payloads_absorbed_in_plan_order_not_completion_order(monkeypatch):
    scripted(monkeypatch, order=reversed)
    obs = StubObs()
    ticks = []
    run_batch(plan([1, 2, 3]), jobs=2, obs=obs, progress=ticks.append)
    assert obs.absorbed == [{"from": 0}, {"from": 1}, {"from": 2}]
    assert obs.lookups == []  # no store, nothing looked up
    assert [t.done for t in ticks] == [1, 2, 3]
    assert ticks[-1].busy_seconds == pytest.approx(2.25)


@pytest.mark.parametrize("kind", sorted(TOPOLOGY_KINDS))
def test_planned_keys_and_banked_fingerprints_equal_the_one_trial_forms(
    kind, monkeypatch
):
    # The planner derives keys and fingerprints from one digest per
    # seed; they must be what spec_hash / spec_fingerprint compute from
    # an independently rebuilt topology, for every topology kind.
    scripted(monkeypatch)
    factory = topology_factory({"kind": kind, "nodes": 12})
    schemes = {
        "constant": {"mrai": 0.5},
        "dynamic": {"mrai_scheme": "dynamic", "levels": [0.5, 1.25, 2.25]},
        "batching": {"mrai": 0.5, "queue": "dest_batch"},
    }
    cells = [(label, 0.1, build_spec(s)) for label, s in schemes.items()]
    planned = plan_grid(factory, cells, [1, 2])
    store = StubStore()
    run_batch(planned, jobs=1, store=store)
    assert len({trial.key for trial in planned}) == len(planned) == 6
    for trial in planned:
        rebuilt = factory(trial.seed)
        assert trial.key == spec_hash(trial.spec, rebuilt, trial.seed)
        assert store.fingerprints[trial.key] == spec_fingerprint(
            trial.spec, rebuilt, trial.seed
        )


def test_run_tasks_in_process_is_lazy_and_reports_errors(monkeypatch):
    started = []

    def execute(index, topology, spec, seed, obs_config):
        started.append(index)
        if index == 1:
            raise ValueError("bad trial")
        return fake_trial(seed), None

    monkeypatch.setattr(batch_mod, "execute_trial", execute)
    stream = run_tasks(plan([10, 11, 12]), range(3), jobs=1)
    assert next(stream)[0] == 0
    assert started == [0]  # nothing runs ahead of the consumer
    assert next(stream) == (1, None, None, "ValueError: bad trial")
    assert next(stream)[3] is None
    assert list(stream) == []


def test_run_tasks_sends_even_one_task_to_the_pool_when_jobs_gt_1(
    monkeypatch,
):
    calls = []

    class StubPool:
        def run_guarded(self, planned, indices, jobs, obs_config):
            calls.append((len(indices), jobs))
            for index in indices:
                yield index, fake_trial(planned[index].seed), None, None
            return {}

    def in_parent(*trial):
        raise AssertionError("a jobs=2 task ran in the parent process")

    monkeypatch.setattr(batch_mod, "get_worker_pool", StubPool)
    monkeypatch.setattr(batch_mod, "execute_trial", in_parent)
    assert [o[0] for o in run_tasks(plan([5]), [0], jobs=2)] == [0]
    assert calls == [(1, 2)]
