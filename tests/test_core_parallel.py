"""Tests for parallel trial execution (repro.core.parallel).

The headline property under test: ``jobs=N`` is bit-identical to
``jobs=1`` on the same seeds, including everything an observability
session records.
"""

import multiprocessing
import pickle
from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.mrai import ConstantMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
    run_trials,
)
from repro.core.batch import PlannedTrial, plan_grid
from repro.core.parallel import (
    TrialExecutionError,
    WorkerPool,
    _Run,
    _WorkerHandle,
    cache_touch,
    choose_chunk,
    collect,
    derive_trial_seeds,
    execute_trial,
    lost_trials,
    plan_chunks,
)
from repro.obs.session import ObsSession
from repro.obs.spans import record_spans
from repro.store import Campaign, run_campaign
from repro.store.hashing import topology_digest, trial_key
from repro.topology.degree import SkewedDegreeSpec
from repro.topology.skewed import skewed_topology

SEEDS = (1, 2, 3)


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
    result = ExperimentResult(spec=spec)
    for _index, trial, _payload, _error in outcomes:
        result.add(trial)
    return result, stats


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
    spec = spec_05()
    serial = run_trials(factory, spec, SEEDS, jobs=1)
    parallel = run_trials(factory, spec, SEEDS, jobs=4)
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
    # An impossibly small warm-up budget makes every trial raise inside
    # the worker; run_trials must surface which trial and why.
    spec = spec_05().with_(max_warmup_time=1e-6)
    with pytest.raises(TrialExecutionError) as exc_info:
        run_trials(factory, spec, (7, 8), jobs=2)
    assert "seed" in str(exc_info.value)
    assert exc_info.value.seed in (7, 8)


def test_serial_failure_surfaces_too(monkeypatch):
    import repro.core.batch as batch_mod

    calls = []
    real = batch_mod.execute_trial

    def counted(*trial):
        calls.append(trial[3])
        return real(*trial)

    monkeypatch.setattr(batch_mod, "execute_trial", counted)
    spec = spec_05().with_(max_warmup_time=1e-6)
    with pytest.raises(TrialExecutionError) as exc_info:
        run_trials(factory, spec, (7,), jobs=1)
    assert exc_info.value.seed == 7
    assert calls == [7]  # fail-fast: the hook raises before any retry


# ----------------------------------------------------------------------
# Progress and jobs plumbing
# ----------------------------------------------------------------------
def test_progress_ticks_monotonic_and_complete():
    ticks = []
    run_trials(factory, spec_05(), SEEDS, progress=ticks.append, jobs=2)
    dones = [t.done for t in ticks]
    assert dones == sorted(dones)
    assert dones[-1] == len(SEEDS)
    assert all(t.total == len(SEEDS) for t in ticks)


# ----------------------------------------------------------------------
# Observability round-trip
# ----------------------------------------------------------------------
def observed_run(mode):
    """SEEDS under every recorder and both sinks.

    ``mode`` is ``"inline"`` — a loop of ``run_experiment`` — or a
    ``jobs`` value for ``run_trials``.
    """
    trace, dataplane = [], []
    obs = ObsSession(
        sample_interval=0.25,
        profile=True,
        trace_sink=trace.append,
        spans=True,
        dataplane_sink=dataplane.append,
    )
    spec = spec_dynamic_batch()
    if mode == "inline":
        result = ExperimentResult(spec=spec)
        for seed in SEEDS:
            result.add(
                run_experiment(factory(seed), spec, seed=seed, obs=obs)
            )
    else:
        result = run_trials(factory, spec, SEEDS, obs=obs, jobs=mode)
    return obs, result, trace, dataplane


def observed_facts(obs, trace, dataplane):
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
        "trace_sink": trace,
        "dataplane_sink": dataplane,
    }


def test_obs_aggregation_roundtrip():
    serial_obs, serial_result, serial_trace, _ = observed_run(1)
    parallel_obs, parallel_result, parallel_trace, _ = observed_run(2)

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
    assert parallel_obs.registry.snapshot() == serial_obs.registry.snapshot()

    # Profiler: identical event counts per run (wall time differs).
    assert (
        parallel_obs.profiler.total_events
        == serial_obs.profiler.total_events
    )

    # Trace records survive the worker round-trip.
    assert len(parallel_trace) == len(serial_trace)
    assert [r.category for r in parallel_trace] == [
        r.category for r in serial_trace
    ]

    # The contract: a session cannot tell which entry point, or which
    # process, ran a trial.
    expected = None
    for mode in ("inline", 1, 2):
        obs, result, trace, dataplane = observed_run(mode)
        facts = observed_facts(obs, trace, dataplane)
        assert len(facts["probes"]) == len(SEEDS)
        assert facts["trace_sink"] and facts["dataplane_sink"]
        if expected is None:
            expected = facts
        for section, value in facts.items():
            assert value == expected[section], (mode, section)
        assert result_signature(result) == result_signature(serial_result)


@pytest.mark.parametrize("jobs", [1, 2])
def test_probe_series_helpers_survive_run_trials(jobs):
    # session.probes holds the same data class whichever way the trial
    # ran: the series helpers work after a batch, pooled or not.
    obs = ObsSession(sample_interval=0.25)
    run_trials(factory, spec_05(), SEEDS, obs=obs, jobs=jobs)
    assert len(obs.probes) == len(SEEDS)
    probe = obs.probe
    assert len(probe) == len(probe.times) > 2
    assert probe.times == sorted(probe.times)
    assert probe.peak() == max(probe.aggregate_series("work_max")) > 0.0
    node = probe.node_samples[0].node
    assert len(probe.node_series(node, "unfinished_work")) == sum(
        1 for s in probe.node_samples if s.node == node
    )


#: Pickled-size ceilings of the observation record of one fixed trial
#: (40 nodes, dynamic MRAI + dest_batch, seed 1), per session config.
#: Before the record stated each fact once: 3 969 / 4 699 / 154 427 B.
RECORD_SIZE_CEILINGS = [
    ("default", {}, 3_200),
    ("profile+spans", {"profile": True, "spans": True}, 3_900),
    (
        "every recorder",
        {
            "sample_interval": 0.25,
            "profile": True,
            "trace": True,
            "spans": True,
            "dataplane": True,
        },
        154_427,
    ),
    (
        "every recorder + both sinks",
        {
            "sample_interval": 0.25,
            "profile": True,
            "trace_sink": print,
            "spans": True,
            "dataplane_sink": print,
        },
        None,
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
        assert ("trace_records" in record) == ("trace_sink" in config)
        assert ("dataplane_records" in record) == ("dataplane_sink" in config)
        if ceiling is not None:
            assert len(blob) <= ceiling, name


def test_unobserved_parallel_run_has_no_payload_cost():
    # No session: workers must not build one either.
    result = run_trials(factory, spec_05(), (1, 2), jobs=2)
    assert len(result.trials) == 2


# ----------------------------------------------------------------------
# The persistent warm worker pool
# ----------------------------------------------------------------------
def test_warm_pool_reuse_bitwise_across_runs():
    # Two consecutive runs against the same pool: the second must reuse
    # every worker (no respawn, no spin-up) and both must match the
    # serial baseline bit for bit.
    spec = spec_05()
    serial = run_trials(factory, spec, SEEDS, jobs=1)
    pool = WorkerPool()
    try:
        first, stats1 = pool_trials(pool, spec)
        assert stats1["workers_spawned"] == 2
        assert stats1["workers_reused"] == 0
        second, stats2 = pool_trials(pool, spec)
        assert stats2["workers_spawned"] == 0
        assert stats2["workers_reused"] == 2
        assert stats2["spinup_seconds"] == 0.0
        # The warm pool already holds every topology: all cache hits,
        # nothing re-shipped.
        assert stats2["cache_hits"] == len(SEEDS)
        assert stats2["cache_misses"] == 0
        assert stats2["shipped_topologies"] == 0
        assert result_signature(first) == result_signature(serial)
        assert result_signature(second) == result_signature(serial)
    finally:
        pool.close()


def test_fork_and_spawn_start_methods_identical():
    spec = spec_05()
    serial = run_trials(factory, spec, SEEDS, jobs=1)
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


def test_topology_cache_eviction_on_digest_change():
    # A capacity-1 cache with three distinct topologies forces
    # evictions — results must stay correct throughout.
    spec = spec_05()
    serial = run_trials(factory, spec, SEEDS, jobs=1)
    pool = WorkerPool(start_method="spawn", cache_capacity=1)
    try:
        result, stats = pool_trials(pool, spec)
        assert result_signature(result) == result_signature(serial)
        assert stats["shipped_topologies"] == len(SEEDS)  # all distinct
        assert stats["cache_misses"] == len(SEEDS)  # each shipped once
        assert stats["evictions"] >= 1  # capacity 1 cannot hold two
        # Re-running re-ships whatever was evicted; the parent's mirror
        # of each worker cache must stay exact (a divergence would
        # surface as a "worker lost topology" trial error).
        again, _stats = pool_trials(pool, spec)
        assert result_signature(again) == result_signature(serial)
    finally:
        pool.close()
    # One worker, room for two of the three topologies, two runs: the
    # counters the parent takes at dispatch are those of a brute-force
    # LRU fed the chunks in the order they were sent, and no trial finds
    # its topology gone (pool_trials checks every error is None) — the
    # mirror is the worker's cache.
    digests = [topology_digest(factory(seed)) for seed in SEEDS]
    pool = WorkerPool(cache_capacity=2)
    held = []
    try:
        for _run in range(2):
            with record_spans() as rec:
                result, stats = pool_trials(pool, spec, jobs=1)
            assert result_signature(result) == result_signature(serial)
            # One trial a chunk, so chunk i carries SEEDS[i]'s topology.
            sent = [
                digests[r["attrs"]["chunk"]]
                for r in rec.records
                if r["name"] == "pool.submit"
            ]
            assert sorted(sent) == sorted(digests)
            held, misses, evictions = list_lru(sent, 2, held)
            assert stats["cache_misses"] == misses
            assert stats["shipped_topologies"] == misses
            assert stats["evictions"] == evictions >= 1
            assert stats["cache_hits"] + misses == stats["tasks"] == 3
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
def list_lru(digests, capacity, held=()):
    """Brute-force LRU over a plain list, oldest first: the final order
    and how many of ``digests`` missed / how many entries were evicted."""
    order, misses, evictions = list(held), 0, 0
    for digest in digests:
        if digest in order:
            order.remove(digest)
        else:
            misses += 1
        order.append(digest)
        while len(order) > capacity:
            del order[0]
            evictions += 1
    return order, misses, evictions


@given(
    digests=st.lists(st.sampled_from("abcdef")),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_cache_touch_is_a_brute_force_lru(digests, capacity):
    cache, evictions = OrderedDict(), 0
    for digest in digests:
        evictions += cache_touch(cache, digest, digest.upper(), capacity)
    order, _misses, evicted = list_lru(digests, capacity)
    assert (list(cache), evictions) == (order, evicted)
    assert all(value == digest.upper() for digest, value in cache.items())


def handle(holds=(), remaining=None):
    worker = _WorkerHandle()
    for digest in holds:
        cache_touch(worker.holds, digest, True, capacity=8)
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


@pytest.mark.parametrize(
    "pending, workers, expected",
    [
        pytest.param(
            ["a", "b", "b"],
            [dict(holds=["b"])],
            (0, 1),
            id="a free worker takes its first warm chunk, not the head",
        ),
        pytest.param(
            ["a", "b"],
            [dict(remaining={(1, 7): [0]}), dict()],
            (1, 0),
            id="nobody warm: the least loaded worker takes the head",
        ),
        pytest.param(
            ["a"],
            [dict(), dict(holds=["a"], remaining={(1, 7): [0]})],
            (1, 0),
            id="a cold worker leaves the head to the worker warm for it",
        ),
        pytest.param(
            ["a"],
            [dict(holds=["a"], remaining={(1, 7): [0], (1, 8): [1]})],
            None,
            id="two chunks in flight is a full worker",
        ),
    ],
)
def test_choose_chunk_affinity(pending, workers, expected):
    workers = [handle(**spec) for spec in workers]
    chunks = [(i, digest, [i]) for i, digest in enumerate(pending)]
    choice = choose_chunk(chunks, workers)
    if choice is not None:
        choice = (workers.index(choice[0]), choice[1])
    assert choice == expected


def test_dispatching_until_nobody_is_free_caps_chunks_in_flight():
    workers = [handle(), handle(holds=["a"]), handle()]
    workers[2].alive = False
    pending = [(i, "ab"[i % 2], [i]) for i in range(10)]
    while (choice := choose_chunk(pending, workers)) is not None:
        worker, position = choice
        chunk_id, digest, members = pending.pop(position)
        cache_touch(worker.holds, digest, True, capacity=8)
        worker.remaining[(1, chunk_id)] = members
    assert [len(w.remaining) for w in workers] == [2, 2, 0]
    assert len(pending) == 6


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
        result = run_trials(factory, spec_05(), SEEDS, obs=obs, jobs=jobs)
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
