"""Tests for the shared trial-batch pipeline (repro.core.batch).

``run_campaign`` and the service executor are tested end to end
elsewhere; here the loop itself runs against a stub store and
a scripted outcome stream, so ordering guarantees can be pinned exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
from repro.core.batch import (
    MAX_ATTEMPTS,
    BatchOutcome,
    PlannedTrial,
    Tally,
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
        self.lookups = []

    def get(self, key):
        self.lookups.append(key in self.rows)
        return self.rows.get(key)

    def put(self, key, trial, fingerprint=None):
        self.rows[key] = trial
        self.fingerprints[key] = fingerprint


class StubObs:
    def __init__(self):
        self.absorbed = []

    def worker_args(self):
        return {"stub": True}

    def absorb(self, record, spec, topology):
        # The record beside the data run_batch holds for it.
        assert spec is SPEC and topology == TOPOLOGY.summary()
        self.absorbed.append(record)


def scripted(monkeypatch, order=reversed, errors=()):
    """Replace run_tasks with a stream completing in ``order``; returns
    the list of index batches it was asked to run.  An index in
    ``errors`` fails every attempt, an ``(index, attempt)`` pair only
    that one."""
    rounds = []

    def stream(planned, indices, jobs, obs_config):
        rounds.append(list(indices))
        attempt = len(rounds)
        for index in order(indices):
            if index in errors or (index, attempt) in errors:
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
    seen = []
    result = run_batch(
        plan([1, 2, 3]),
        jobs=1,
        store=store,
        obs=StubObs(),
        on_outcome=seen.append,
    )
    assert rounds == [[0, 2]]  # the hit never reaches execution
    assert store.lookups == [False, True, False]
    # Every trial settles once, and the outcomes mark what the lookup
    # served.
    assert sorted(o.index for o in seen) == [0, 1, 2]
    tally = result.tally
    assert sum(o.cached for o in seen) == tally.cached == 1
    assert (tally.cached, tally.executed, tally.retried) == (1, 2, 0)
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
    seen = []
    result = run_batch(
        plan([1, 2, 3]),
        jobs=1,
        store=store,
        on_outcome=seen.append,
    )
    assert rounds == [[0, 1, 2], [1], [1]]  # only the failure re-runs
    assert result.failures == {1: "RuntimeError: scripted"}
    assert result.trials[1] is None
    assert (result.tally.executed, result.tally.retried) == (2, 2)
    assert sorted(store.rows) == ["key-1", "key-3"]
    # Every attempt settles once: the two successes, then the failure
    # at each of its three attempts.
    assert [(o.index, o.error) for o in seen] == [
        (0, None),
        (1, "RuntimeError: scripted"),
        (2, None),
        (1, "RuntimeError: scripted"),
        (1, "RuntimeError: scripted"),
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_tally_settles_every_trial_of_a_batch(data):
    total = data.draw(st.integers(0, 6), label="total")
    seeds = list(range(1, total + 1))
    hits = data.draw(st.sets(st.sampled_from(seeds or [0])), label="hits")
    errors = data.draw(
        st.sets(
            st.tuples(
                st.integers(0, max(total - 1, 0)),
                st.integers(1, MAX_ATTEMPTS),
            )
        ),
        label="errors",
    )
    order = data.draw(st.sampled_from([list, reversed]), label="order")
    store = StubStore([(f"key-{s}", fake_trial(s)) for s in hits])
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        scripted(mp, order=order, errors=errors)
        result = run_batch(
            plan(seeds), jobs=1, store=store, on_outcome=seen.append
        )
    # The batch's tally is the fold of exactly what the hook saw.
    replay = Tally()
    for outcome in seen:
        replay(outcome)
    tally = result.tally
    assert tally == replay
    assert tally.cached + tally.executed + tally.failed_terminal == total
    assert tally.open(total) == 0
    assert tally.retried == tally.failed_attempts - tally.failed_terminal
    # Each trial's attempts run 1, 2, ...; only its last can be final,
    # and a failure is final exactly when it spent the budget.
    attempts = {}
    for outcome in seen:
        attempts.setdefault(outcome.index, []).append(outcome)
    for trail in attempts.values():
        assert [o.attempt for o in trail] == list(range(1, len(trail) + 1))
        assert not any(o.final for o in trail[:-1])
    assert set(result.failures) == {
        index for index, trail in attempts.items() if trail[-1].final
    }
    for outcome in seen:
        if outcome.error is not None:
            assert outcome.final == (outcome.attempt == MAX_ATTEMPTS)


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
    seen = []
    run_batch(plan([1, 2, 3]), jobs=2, obs=obs, on_outcome=seen.append)
    assert obs.absorbed == [{"from": 0}, {"from": 1}, {"from": 2}]
    # The hook sees completion order, each trial with its wall times.
    assert [o.index for o in seen] == [2, 1, 0]
    assert sum(
        o.trial.warmup_wall + o.trial.convergence_wall for o in seen
    ) == pytest.approx(2.25)


def test_eta_is_unknown_before_an_execution_and_zero_when_nothing_is_open():
    def eta_seconds(open_trials, busy_seconds, executed, jobs):
        tally = Tally(executed=executed, busy_seconds=busy_seconds)
        return tally.eta_seconds(open_trials, jobs)

    assert eta_seconds(0, 0.0, 0, 1) == 0.0
    assert eta_seconds(-1, 5.0, 2, 2) == 0.0
    # Store hits carry no wall time: no execution, no estimate.
    assert eta_seconds(3, 0.0, 0, 2) is None
    # 3 open x (5 s / 2 executed) / 2 jobs = 3.75 -> 3.8 (0.1 s steps).
    assert eta_seconds(3, 5.0, 2, 2) == 3.8
    assert eta_seconds(3, 5.0, 2, 0) == 7.5  # jobs floor at one worker


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
