"""Tests for parallel trial execution (repro.core.parallel).

The headline property under test: ``jobs=N`` is bit-identical to
``jobs=1`` on the same seeds, including everything an observability
session records.
"""

import itertools
import multiprocessing
import pickle
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.mrai import ConstantMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.core.batch import MAX_ATTEMPTS, PlannedTrial, plan_grid
from repro.core.parallel import (
    WorkerPool,
    _MAX_INFLIGHT_CHUNKS,
    _Run,
    _WorkerHandle,
    collect,
    derive_trial_seeds,
    execute_trial,
    free_worker,
    lost_trials,
    plan_chunks,
)
from repro.obs.session import ObsSession
from repro.store import Campaign, run_campaign
from repro.store.campaign import CampaignError
from repro.store.hashing import topology_digest, trial_key
from repro.topology.degree import SkewedDegreeSpec
from repro.topology.skewed import skewed_topology
from tests.conftest import run_cell

SEEDS = (1, 2, 3)
#: ``spec_05()`` and ``spec_dynamic_batch()`` as campaign schemes (the
#: cell's failure fraction is 0.1).
SCHEME_05 = {"mrai": 0.5}
SCHEME_DYNAMIC_BATCH = {"mrai_scheme": "dynamic", "queue": "dest_batch"}
#: An impossibly small warm-up budget: every trial raises.
SCHEME_FAILING = {"mrai": 0.5, "max_warmup_time": 1e-6}


def factory(seed):
    return skewed_topology(24, seed=seed)


def spec_05():
    return ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)


def spec_dynamic_batch():
    return ExperimentSpec(
        mrai=DynamicMRAI(), failure_fraction=0.1, queue_discipline="dest_batch"
    )


def pool_trials(pool, spec, jobs=2):
    """One trial per SEEDS entry on a private pool, folded in seed order.

    Returns ``(ExperimentResult, what the run moved the pool's counters
    by)`` — the generator's return value, which must be the difference
    of the snapshots around it.
    """
    planned = plan_grid(factory, [("", 0.0, spec)], SEEDS)
    stats = {}

    def run():
        stats.update(
            (yield from pool.run_guarded(planned, range(len(SEEDS)), jobs))
        )

    before = pool.stats_snapshot()
    outcomes = sorted(run())
    after = pool.stats_snapshot()
    assert stats == {key: after[key] - before[key] for key in stats}
    assert set(stats) == set(before) - {"workers_alive"}
    assert [error for *_, error in outcomes] == [None] * len(SEEDS)
    trials = [trial for _index, trial, _payload, _error in outcomes]
    return ExperimentResult(spec=spec, trials=trials), stats


def one_topology_plan(specs, first_seed):
    """One trial per spec, all on ``factory(1)``, seeds counting up."""
    topology = factory(1)
    digest = topology_digest(topology)
    return [
        PlannedTrial(
            topology,
            spec,
            first_seed + i,
            digest,
            trial_key(spec, digest, first_seed + i),
        )
        for i, spec in enumerate(specs)
    ]


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


# ----------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit
# ----------------------------------------------------------------------
def test_parallel_matches_serial_bitwise():
    serial = run_cell(SCHEME_05, SEEDS, jobs=1)
    parallel = run_cell(SCHEME_05, SEEDS, jobs=4)
    assert serial.mean_delay == parallel.mean_delay
    assert serial.mean_messages == parallel.mean_messages
    assert result_signature(serial) == result_signature(parallel)


def test_sweep_parallel_identical():
    """A whole grid is bit-identical at jobs = 1 / 2 / 4: every measured
    number of every trial of every point, not only the folded means."""
    campaign = Campaign(
        name="grid",
        topology={"kind": "skewed", "nodes": 24},
        schemes={"fifo-0.5": {"mrai": 0.5}},
        axis="failure_fraction",
        values=[0.1, 0.2],
        seeds=[1, 2],
    )
    [serial] = run_campaign(campaign, jobs=1).series
    for jobs in (2, 4):
        [parallel] = run_campaign(campaign, jobs=jobs).series
        assert serial.delays == parallel.delays
        assert serial.message_counts == parallel.message_counts
        assert serial.xs == parallel.xs
        assert [result_signature(p.result) for p in serial.points] == [
            result_signature(p.result) for p in parallel.points
        ]


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
def test_derive_trial_seeds_unique_and_deterministic():
    seeds = derive_trial_seeds(42, 500)
    assert len(seeds) == 500
    assert len(set(seeds)) == 500
    assert all(s >= 0 for s in seeds)
    assert seeds == derive_trial_seeds(42, 500)
    # A prefix is stable: asking for fewer seeds never reshuffles.
    assert derive_trial_seeds(42, 10) == seeds[:10]


def test_derive_trial_seeds_depend_on_master():
    assert derive_trial_seeds(1, 20) != derive_trial_seeds(2, 20)


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
def test_worker_failure_surfaces():
    # Every trial raises inside the worker; once its attempts are spent,
    # the campaign must surface which trials failed and why.
    with pytest.raises(CampaignError) as exc_info:
        run_cell(SCHEME_FAILING, (7, 8), jobs=2)
    assert "seed=7" in str(exc_info.value)
    assert sorted(t.seed for t, _ in exc_info.value.failures) == [7, 8]
    assert all(error for _, error in exc_info.value.failures)


def test_serial_failure_surfaces_too(monkeypatch):
    import repro.core.batch as batch_mod

    calls = []
    real = batch_mod.execute_trial

    def counted(*trial):
        calls.append(trial[3])
        return real(*trial)

    monkeypatch.setattr(batch_mod, "execute_trial", counted)
    with pytest.raises(CampaignError) as exc_info:
        run_cell(SCHEME_FAILING, (7,), jobs=1)
    assert "seed=7" in str(exc_info.value)
    assert [t.seed for t, _ in exc_info.value.failures] == [7]
    assert calls == [7] * MAX_ATTEMPTS  # retried inside the batch


# ----------------------------------------------------------------------
# Progress and jobs plumbing
# ----------------------------------------------------------------------
def test_progress_ticks_monotonic_and_complete():
    # Over the pool, each trial settles exactly once, in whatever order
    # the workers finish.
    seen = []
    run_cell(SCHEME_05, SEEDS, on_outcome=seen.append, jobs=2)
    assert sorted(o.index for o in seen) == list(range(len(SEEDS)))
    assert all(o.error is None and not o.cached for o in seen)


# ----------------------------------------------------------------------
# Observability round-trip
# ----------------------------------------------------------------------
def observed_run(mode):
    """SEEDS under every recorder, into one sink.

    ``mode`` is ``"inline"`` — a loop of ``run_experiment`` — or a
    ``jobs`` value for a one-cell campaign.
    """
    records = []
    obs = ObsSession(
        sample_interval=0.25,
        profile=True,
        trace=True,
        spans=True,
        dataplane=True,
        sink=records.append,
    )
    if mode == "inline":
        spec = spec_dynamic_batch()
        result = ExperimentResult(
            spec=spec,
            trials=[
                run_experiment(factory(seed), spec, seed=seed, obs=obs)
                for seed in SEEDS
            ],
        )
    else:
        result = run_cell(SCHEME_DYNAMIC_BATCH, SEEDS, obs=obs, jobs=mode)
    return obs, result, records


def observed_facts(obs, records):
    """Everything a session holds that is simulation state, by section."""
    walls = ("warmup_wall", "convergence_wall")
    return {
        "registry": obs.registry.records(),  # histogram sums included
        "phases": [(p.name, p.sim_seconds, p.events) for p in obs.phases],
        "snapshots": [
            {k: v for k, v in snapshot.items() if k not in walls}
            for snapshot in obs.trial_snapshots
        ],
        "probes": obs.probes,
        "profile": {r.category: r.events for r in obs.profiler.report()},
        "sink": records,
    }


def test_obs_aggregation_roundtrip():
    serial_obs, serial_result, serial_records = observed_run(1)
    parallel_obs, parallel_result, parallel_records = observed_run(2)

    assert result_signature(serial_result) == result_signature(
        parallel_result
    )

    # Trial snapshots: one per trial, in seed order.
    assert len(parallel_obs.trial_snapshots) == len(SEEDS)
    assert [s["seed"] for s in parallel_obs.trial_snapshots] == list(SEEDS)
    assert [s["trial"] for s in parallel_obs.trial_snapshots] == [0, 1, 2]

    # Phase timings: same labels in the same order (wall times differ).
    assert [p.name for p in parallel_obs.phases] == [
        p.name for p in serial_obs.phases
    ]

    # Path exploration is simulation state, so it matches exactly.
    assert [s["exploration"] for s in parallel_obs.trial_snapshots] == [
        s["exploration"] for s in serial_obs.trial_snapshots
    ]

    # Metrics: both runs merge the same per-trial sums in seed order,
    # so counters, gauges and histogram means are all exact.
    assert parallel_obs.registry.records() == serial_obs.registry.records()

    # Profiler: identical event counts per run (wall time differs).
    assert (
        parallel_obs.profiler.total_events
        == serial_obs.profiler.total_events
    )

    # The one record stream survives the worker round-trip: per trial,
    # its trace records, then its delimiter and data-plane transitions.
    assert len(parallel_records) == len(serial_records)
    assert [r.category for r in parallel_records] == [
        r.category for r in serial_records
    ]
    layout = [
        category
        for category, _ in itertools.groupby(
            r.category if r.category.startswith("dataplane") else "trace"
            for r in parallel_records
        )
    ]
    assert layout == ["trace", "dataplane_trial", "dataplane"] * len(SEEDS)
    assert [
        r.detail[0]
        for r in parallel_records
        if r.category == "dataplane_trial"
    ] == list(SEEDS)

    # The contract: a session cannot tell which entry point, or which
    # process, ran a trial.
    expected = None
    for mode in ("inline", 1, 2):
        obs, result, records = observed_run(mode)
        facts = observed_facts(obs, records)
        assert len(facts["probes"]) == len(SEEDS)
        assert {r.category for r in facts["sink"]} == {
            "causality",
            "route_change",
            "dataplane_trial",
            "dataplane",
        }
        if expected is None:
            expected = facts
        for section, value in facts.items():
            assert value == expected[section], (mode, section)
        assert result_signature(result) == result_signature(serial_result)


@pytest.mark.parametrize("jobs", [1, 2])
def test_probe_series_helpers_survive_a_batch(jobs):
    # session.probes holds the same data class whichever way the trial
    # ran: the series helpers work after a batch, pooled or not.
    obs = ObsSession(sample_interval=0.25)
    run_cell(SCHEME_05, SEEDS, obs=obs, jobs=jobs)
    assert len(obs.probes) == len(SEEDS)
    probe = obs.probe
    times = probe.aggregate_series("time")
    assert len(probe) == len(times) > 2
    assert times == sorted(times)
    assert probe.peak() == max(probe.aggregate_series("work_max")) > 0.0
    node = probe.node_samples[0].node
    assert len(probe.node_series(node, "unfinished_work")) == sum(
        1 for s in probe.node_samples if s.node == node
    )


#: Pickled-size ceilings of the observation record of one fixed trial
#: (40 nodes, dynamic MRAI + dest_batch, seed 1), per session config.
#: Before the record stated each fact once: 3 969 / 4 699 / 154 427 B.
#: While the metrics carried the always-zero queue-depth and in-flight
#: gauges and buffered trace records pickled as dataclasses: 3 088 /
#: 3 734 / 153 901 / 1 304 252 B.
RECORD_SIZE_CEILINGS = [
    ("default", {}, 2_200),
    ("profile+spans", {"profile": True, "spans": True}, 2_900),
    (
        "every recorder",
        {
            "sample_interval": 0.25,
            "profile": True,
            "trace": True,
            "spans": True,
            "dataplane": True,
        },
        125_000,
    ),
    (
        "every recorder + a sink",
        {
            "sample_interval": 0.25,
            "profile": True,
            "trace": True,
            "spans": True,
            "dataplane": True,
            "sink": print,
        },
        900_000,
    ),
]


def test_observation_record_is_plain_data_stating_each_fact_once():
    topology = skewed_topology(40, SkewedDegreeSpec.paper_70_30(), seed=1)
    spec = spec_dynamic_batch()
    for name, config, ceiling in RECORD_SIZE_CEILINGS:
        recipe = ObsSession(**config).worker_args()
        _result, record = execute_trial(0, topology, spec, 1, recipe)
        blob = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        print(f"observation record, {name}: {len(blob)} B pickled")
        assert pickle.loads(blob) == record
        # Seed, counters, exploration and data-plane headline live in
        # the snapshot only; spec and topology are not shipped at all.
        assert not set(record["snapshot"]) & set(record)
        assert not {"spec", "topology"} & set(record)
        assert ("records" in record) == ("sink" in config)
        assert len(blob) <= ceiling, name


def test_unobserved_parallel_run_has_no_payload_cost():
    # No session: workers must not build one either.
    result = run_cell(SCHEME_05, (1, 2), jobs=2)
    assert len(result.trials) == 2


# ----------------------------------------------------------------------
# The persistent warm worker pool
# ----------------------------------------------------------------------
def test_warm_pool_reuse_bitwise_across_runs():
    # Two consecutive runs against the same pool: the second must reuse
    # every worker (no respawn, no spin-up) and both must match the
    # serial baseline bit for bit.
    spec = spec_05()
    serial = run_cell(SCHEME_05, SEEDS, jobs=1)
    pool = WorkerPool()
    try:
        first, stats1 = pool_trials(pool, spec)
        assert stats1["workers_spawned"] == 2
        assert stats1["workers_reused"] == 0
        second, stats2 = pool_trials(pool, spec)
        assert stats2["workers_spawned"] == 0
        assert stats2["workers_reused"] == 2
        assert stats2["spinup_seconds"] == 0.0
        # Workers keep no topology between chunks: each run ships one
        # per chunk, and the rest of a chunk's trials ride along.
        for stats in (stats1, stats2):
            assert stats["cache_misses"] == stats["chunks"]
            assert stats["cache_hits"] + stats["cache_misses"] == len(SEEDS)
            assert stats["tasks"] == len(SEEDS)
        assert result_signature(first) == result_signature(serial)
        assert result_signature(second) == result_signature(serial)
    finally:
        pool.close()


def test_fork_and_spawn_start_methods_identical():
    spec = spec_05()
    serial = run_cell(SCHEME_05, SEEDS, jobs=1)
    methods = [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ]
    assert methods, "no usable start method?"
    for method in methods:
        pool = WorkerPool(start_method=method)
        try:
            result, _stats = pool_trials(pool, spec)
            assert result_signature(result) == result_signature(
                serial
            ), method
        finally:
            pool.close()


def test_midchunk_failure_surfaces_trial_execution_error():
    # Eight same-topology trials at jobs=1 ride four chunks of two; the
    # poisoned trial opens the second chunk.  It must surface as an
    # error on its own index, even though the run started fine, and its
    # chunk-mate (and everything behind it) must still complete.
    good = spec_05()
    poisoned = good.with_(max_warmup_time=1e-6)
    planned = one_topology_plan([good, good, poisoned] + [good] * 5, 11)
    pool = WorkerPool()
    try:
        before = pool.stats_snapshot()
        outcomes = sorted(pool.run_guarded(planned, range(8), jobs=1))
        assert pool.stats_snapshot()["chunks"] - before["chunks"] == 4
        assert [index for index, *_ in outcomes] == list(range(8))
        assert [error is None for *_, error in outcomes] == [
            index != 2 for index in range(8)
        ]
        assert "RuntimeError" in outcomes[2][3]
        # The pool survives the failure: the next run works and reuses
        # the same workers.
        spawned = pool.stats_snapshot()["workers_spawned"]
        outcomes = list(pool.run_guarded(planned, [0], jobs=1))
        assert len(outcomes) == 1 and outcomes[0][3] is None
        assert pool.stats_snapshot()["workers_spawned"] == spawned
    finally:
        pool.close()


def test_run_guarded_reports_errors_without_aborting():
    # The campaign backend: failures come back as error outcomes, the
    # healthy trials still complete.
    good = spec_05()
    poisoned = good.with_(max_warmup_time=1e-6)
    planned = one_topology_plan([good, poisoned, good], 21)
    pool = WorkerPool()
    try:
        outcomes = sorted(pool.run_guarded(planned, range(3), jobs=2))
        assert [index for index, *_ in outcomes] == [0, 1, 2]
        by_index = {index: rest for index, *rest in outcomes}
        assert by_index[0][0] is not None and by_index[0][2] is None
        assert by_index[2][0] is not None and by_index[2][2] is None
        assert by_index[1][0] is None
        assert by_index[1][2]  # the error string names the exception
    finally:
        pool.close()


# ----------------------------------------------------------------------
# The scheduler's pure pieces: plain data in, plain data out, no process
# ----------------------------------------------------------------------
def handle(remaining=None):
    worker = _WorkerHandle()
    worker.remaining.update(remaining or {})
    return worker


def test_plan_chunks_groups_by_digest_in_submission_order():
    # The ledger's grid: 36 trials in (cell, seed) order over 4 seeds'
    # topologies, 2 workers -> ceil(36 / 8) = 5 a chunk, 9 a digest.
    keyed = [(index, f"topo-{index % 4}") for index in range(36)]
    chunks = plan_chunks(keyed, workers=2)
    assert [chunk_id for chunk_id, _, _ in chunks] == list(range(8))
    assert [len(members) for _, _, members in chunks] == [5, 4] * 4
    for k in range(4):
        mine = [m for _, digest, m in chunks if digest == f"topo-{k}"]
        assert sum(mine, []) == list(range(k, 36, 4))
    # Tiny runs degrade to one trial per chunk.
    tiny = plan_chunks(keyed[:3], workers=2)
    assert [members for _, _, members in tiny] == [[0], [1], [2]]


# Named for the digest-affinity rule it once checked; the two cases kept
# are the load rule that replaced it, which ``free_worker`` applies.
@pytest.mark.parametrize(
    "loads, expected",
    [
        pytest.param(
            [dict(remaining={(1, 7): [0]}), dict()],
            1,
            id="nobody warm: the least loaded worker takes the head",
        ),
        pytest.param(
            [dict(remaining={(1, 7): [0], (1, 8): [1]})],
            None,
            id="two chunks in flight is a full worker",
        ),
    ],
)
def test_choose_chunk_affinity(loads, expected):
    workers = [handle(**spec) for spec in loads]
    choice = free_worker(workers)
    if choice is not None:
        choice = workers.index(choice)
    assert choice == expected


def test_dispatching_until_nobody_is_free_caps_chunks_in_flight():
    workers = [handle(), handle(), handle()]
    workers[2].alive = False
    pending = [(i, "ab"[i % 2], [i]) for i in range(10)]
    while (worker := free_worker(workers)) is not None:
        chunk_id, _digest, members = pending.pop(0)
        worker.remaining[(1, chunk_id)] = members
    assert [len(w.remaining) for w in workers] == [2, 2, 0]
    assert len(pending) == 6


class _Pipe:
    """A worker's end of the pipe as ``_dispatch`` sees it: what was sent."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


@given(
    loads=st.lists(
        st.integers(min_value=0, max_value=_MAX_INFLIGHT_CHUNKS),
        min_size=1,
        max_size=5,
    ),
    dead=st.sets(st.integers(min_value=0, max_value=4)),
    n_chunks=st.integers(min_value=0, max_value=12),
    settles=st.lists(st.integers(min_value=0, max_value=4)),
)
def test_dispatch_sends_the_head_chunk_to_the_least_loaded_free_worker(
    loads, dead, n_chunks, settles
):
    # The pool's own dispatch loop over workers with no process behind
    # them.  They start with ``loads`` chunks of an earlier run in
    # flight; after each dispatch a live worker finishes one chunk
    # (``settles``) and the loop runs again.
    workers = []
    for position, load in enumerate(loads):
        worker = handle({(0, k): [k] for k in range(load)})
        worker.conn = _Pipe()
        worker.alive = position not in dead
        workers.append(worker)
    planned = [
        PlannedTrial(f"topology {i}", "spec", i, f"digest {i}", "")
        for i in range(n_chunks)
    ]
    chunks = deque((i, f"digest {i}", [i]) for i in range(n_chunks))
    run = _Run(1, planned, None, chunks, workers)
    pool = WorkerPool()
    sent = 0
    for settle in [None] + settles:
        if settle is not None:
            busy = [w for w in workers if w.alive and w.remaining]
            if not busy:
                break
            busy[settle % len(busy)].remaining.popitem()
        # The rule, replayed on the loads: each queued chunk in turn goes
        # to the least-loaded live worker with room, ties to the first.
        expected, shadow = [], [len(w.remaining) for w in workers]
        for _chunk in run.pending:
            room = [
                (load, position)
                for position, (load, w) in enumerate(zip(shadow, workers))
                if w.alive and load < _MAX_INFLIGHT_CHUNKS
            ]
            if not room:
                break
            expected.append(min(room)[1])
            shadow[min(room)[1]] += 1
        assert pool._dispatch(run) == []
        took = {
            message[2]: position
            for position, w in enumerate(workers)
            for message in w.conn.sent
        }
        # Chunks leave in plan order: the ids sent so far are 0..n-1.
        assert sorted(took) == list(range(sent + len(expected)))
        assert [took[i] for i in range(sent, len(took))] == expected
        sent = len(took)
        assert [len(w.remaining) for w in workers] == shadow
        assert max(shadow) <= _MAX_INFLIGHT_CHUNKS
        assert not run.pending or free_worker(workers) is None
    # Every message carries its chunk's topology, and a dead worker is
    # sent nothing.
    for worker in workers:
        for message in worker.conn.sent:
            assert message[3] == planned[message[2]].topology
        assert worker.alive or worker.conn.sent == []
    assert pool.totals["chunks"] == pool.totals["cache_misses"] == sent


def test_dead_worker_loses_only_the_current_runs_trials():
    # The worker still owed chunks of run 1, which its consumer
    # abandoned, when it died during run 2: only run 2's unanswered
    # trial is lost to run 2, and the stale entries go with the worker.
    worker = handle(remaining={(1, 0): [1], (1, 1): [2, 3], (2, 0): [0]})
    assert lost_trials(worker, run_id=2) == [0]
    assert not worker.alive and worker.remaining == {}
    # Nothing of the current run in flight: nothing to report.
    stale_only = handle(remaining={(1, 0): [1], (1, 1): [2, 3]})
    assert lost_trials(stale_only, run_id=2) == []
    assert stale_only.remaining == {}


def test_collect_closes_a_chunk_with_its_last_outcome_whichever_run():
    totals = {}
    run = _Run(2, [], None, [], [])
    worker = handle(remaining={(1, 4): [8, 9], (2, 0): [0, 1]})

    def lands(run_id, chunk_id, index, error=None, current=run):
        message = ("outcome", run_id, chunk_id, index, "r", "p", error)
        return collect(worker, message, current, totals)

    # Results of the abandoned run 1 are dropped but still answer their
    # chunk: its last one frees the in-flight slot.
    assert lands(1, 4, 9) is None
    assert worker.remaining == {(1, 4): [8], (2, 0): [0, 1]}
    assert lands(1, 4, 8) is None
    assert worker.remaining == {(2, 0): [0, 1]}
    # The current run's outcomes come back, failed or not, and close
    # their chunk the same way.
    assert lands(2, 0, 1, error="E: x") == (1, "r", "p", "E: x")
    assert worker.remaining == {(2, 0): [0]}
    assert lands(2, 0, 0) == (0, "r", "p", None)
    assert worker.remaining == {}
    # Draining stale pipes between runs, there is no current run at all.
    worker.remaining[(2, 1)] = [5]
    assert lands(2, 1, 5, current=None) is None
    assert worker.remaining == {} and totals == {}


def test_obs_spans_dataplane_roundtrip_jobs2():
    # Spans, metrics and data-plane summaries must survive the worker
    # round-trip with the renumbering the serial path would produce.
    def observed(jobs):
        obs = ObsSession(spans=True, dataplane=True)
        result = run_cell(SCHEME_05, SEEDS, obs=obs, jobs=jobs)
        return obs, result

    serial_obs, serial_result = observed(1)
    parallel_obs, parallel_result = observed(2)
    assert result_signature(serial_result) == result_signature(
        parallel_result
    )
    # Data-plane summaries are simulation state: exact match, in order.
    assert [s["dataplane"] for s in parallel_obs.trial_snapshots] == [
        s["dataplane"] for s in serial_obs.trial_snapshots
    ]
    assert [t.dataplane for t in parallel_result.trials] == [
        t.dataplane for t in serial_result.trials
    ]
    # Worker spans land under the workers/ prefix; every trial must
    # contribute its execute span to the grafted tree.
    paths = [
        record["path"] for record in parallel_obs.span_recorder.records
    ]
    worker_execs = [
        p
        for p in paths
        if p.startswith("workers/") and p.endswith("trial.execute")
    ]
    assert len(worker_execs) == len(SEEDS)
