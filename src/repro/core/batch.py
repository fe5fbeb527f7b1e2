"""The one trial-batch pipeline: plan -> execute -> bank -> fold.

Every number the paper reports is a mean over repeated trials, and every
figure is a grid of them — cells ``(label, x, spec)`` x seeds — so every
driver in this repo — :func:`repro.core.experiment.run_trials`, the
sweeps of :mod:`repro.core.sweep`,
:func:`repro.store.campaign.run_campaign` and the service's
:class:`repro.service.executor.QueueExecutor` — runs the same loop: look
each planned trial up in the store, execute what is missing (failures
reported, never raised), bank every success from the parent the moment
it lands, and hand worker observability back in plan order.  This module
is that loop, once:

* :func:`plan_grid` / :func:`fold_grid` — the single grid expansion
  (one topology per seed, trials in (cell, seed) order) and the single
  seed-order fold back into one ``ExperimentResult`` per cell;
  :func:`run_grid` runs a whole grid as one batch with the sweep policy
  (one attempt, fail fast);
* :func:`run_tasks` — the single way to execute tasks: in this process
  through :func:`~repro.core.parallel.execute_trial` when ``jobs <= 1``,
  on the process-wide warm :class:`~repro.core.parallel.WorkerPool`
  otherwise — a one-task batch included, so a retry of a trial that just
  killed its worker never runs inside the parent;
* :func:`run_batch` — lookup, execute misses, bank, absorb, progress.
  Its plug points are the store, the attempt budget and a per-outcome
  hook; the callers differ only in those (``run_trials``: one attempt,
  the hook raises on the first error; ``run_campaign``: the campaign's
  retry budget; the service: one attempt per lease, the hook advances
  the queue row).
"""

from __future__ import annotations

import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    Progress,
    ProgressFn,
    TrialResult,
)
from repro.core.parallel import (
    GuardedOutcome,
    PoolRunStats,
    TrialExecutionError,
    TrialTask,
    execute_trial,
    get_default_jobs,
    get_worker_pool,
)
from repro.obs.live import default_progress
from repro.obs.session import ObsSession, active_session
from repro.obs.spans import span

#: One cell of a trial grid: (series label, swept value, point spec).
GridCell = Tuple[str, float, ExperimentSpec]


def run_tasks(
    tasks: Sequence[TrialTask], jobs: int
) -> Iterator[GuardedOutcome]:
    """Execute every task; stream ``(index, trial, payload, error)``.

    Exactly one outcome per task, in completion order.  A trial that
    raises — or whose worker dies — comes back as an error string
    (``"ExcType: message"``), never as an exception, so the consumer
    decides between fail-fast and retry.  ``jobs <= 1`` runs in this
    process, lazily (the next trial starts only when the consumer asks
    for the next outcome); ``jobs > 1`` runs on the warm pool, under
    ``pool.run``/``pool.collect`` spans carrying the run's
    :class:`~repro.core.parallel.PoolRunStats`.
    """
    if jobs <= 1:
        for task in tasks:
            try:
                index, trial, payload = execute_trial(task)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                yield task.index, None, None, f"{type(exc).__name__}: {exc}"
            else:
                yield index, trial, payload, None
        return
    stats = PoolRunStats()
    with span(
        "pool.run", jobs=min(jobs, len(tasks)), tasks=len(tasks)
    ) as pool_span:
        with span("pool.collect", tasks=len(tasks)):
            yield from get_worker_pool().run_guarded(
                tasks, jobs=jobs, stats=stats
            )
        pool_span.set(**stats.as_dict())


@dataclass(frozen=True)
class PlannedTrial:
    """One trial of a batch: what to run and the key it banks under.

    ``key`` is the trial's content address
    (:func:`repro.store.hashing.spec_hash`); it is only read when the
    batch runs against a store.
    """

    topology: Any
    spec: Any
    seed: int
    key: Optional[str] = None


def plan_grid(
    topology_factory: Callable[[int], Any],
    cells: Sequence[GridCell],
    seeds: Sequence[int],
    *,
    keyed: bool,
) -> List[PlannedTrial]:
    """Expand cells x seeds into planned trials, in (cell, seed) order.

    Each seed's topology is built once, however many cells share it.
    ``keyed`` computes the content keys; only a store-backed batch (or a
    store lookup) reads them.
    """
    if keyed:
        from repro.store.hashing import spec_hash
    topologies = {}
    for seed in seeds:
        with span("topology.build", seed=seed):
            topologies[seed] = topology_factory(seed)
    return [
        PlannedTrial(
            topologies[seed],
            spec,
            seed,
            spec_hash(spec, topologies[seed], seed) if keyed else None,
        )
        for _label, _x, spec in cells
        for seed in seeds
    ]


def fold_grid(
    cells: Sequence[GridCell],
    seeds: Sequence[int],
    trials: Sequence[TrialResult],
) -> List[ExperimentResult]:
    """Fold plan-ordered trials into one result per cell, in seed order.

    Whatever order the trials completed in — and whether they came from
    the store or a worker — each cell's accumulators see the same
    sequence, so the folded results are bit-identical across ``jobs``
    values and between cold and warm runs.
    """
    n = len(seeds)
    return [
        ExperimentResult(spec=spec, trials=list(trials[i * n : (i + 1) * n]))
        for i, (_label, _x, spec) in enumerate(cells)
    ]


@dataclass(frozen=True)
class BatchOutcome:
    """One settled trial, as the per-outcome hook sees it.

    ``index`` is the trial's position in the planned sequence.  Exactly
    one of ``trial`` / ``error`` is set; ``cached`` marks a trial served
    by the store lookup instead of an execution.  A successful trial is
    already banked when the hook runs.
    """

    index: int
    trial: Optional[TrialResult] = None
    error: Optional[str] = None
    cached: bool = False


@dataclass
class BatchResult:
    """What one :func:`run_batch` call produced."""

    #: One slot per planned trial, in plan order; None where the trial
    #: failed every attempt.
    trials: List[Optional[TrialResult]]
    #: Trials served by the store lookup.
    hits: int = 0
    #: Trials executed successfully.
    executed: int = 0
    #: Failed executions that were given another attempt.
    retried: int = 0
    #: Plan index -> last error of each trial that exhausted its attempts.
    failures: Dict[int, str] = field(default_factory=dict)


def run_batch(
    planned: Sequence[PlannedTrial],
    *,
    jobs: int,
    store: Optional[Any] = None,
    obs: Optional[ObsSession] = None,
    max_attempts: int = 1,
    on_outcome: Optional[Callable[[BatchOutcome], None]] = None,
    progress: Optional[ProgressFn] = None,
    label: str = "",
    attempt_span: Optional[str] = None,
) -> BatchResult:
    """Look up, execute the misses, bank, absorb — the shared loop.

    ``store`` is anything with ``get(key)`` / ``put(key, trial,
    fingerprint=...)``.  With one, every planned trial is looked up by
    its key first (``obs.note_cache`` counts each lookup, hit or miss,
    exactly once) and every successful execution is written back from
    this process before the next outcome is consumed, so an interrupt
    loses only the trials still in flight.  Failed executions are re-run
    until ``max_attempts`` rounds have been spent; what still fails is
    returned in :attr:`BatchResult.failures`, never raised.

    ``on_outcome`` sees every settled trial — store hits during lookup,
    then executions in completion order, after banking.  An exception it
    raises propagates and abandons the rest of the batch (that is
    ``run_trials``' fail-fast and the service's graceful stop).

    Worker observability payloads are absorbed into ``obs`` in plan
    order once execution is over, whatever order the trials completed
    in.  ``progress`` receives one tick for the cached trials and one per
    executed outcome; ``attempt_span`` names a span opened around each
    execution round.
    """
    if store is not None:
        from repro.store.hashing import spec_fingerprint

    start = time.perf_counter()
    total = len(planned)
    trials: List[Optional[TrialResult]] = [None] * total
    pending: List[int] = []
    for index, item in enumerate(planned):
        cached = None
        if store is not None:
            cached = store.get(item.key)
            if obs is not None:
                obs.note_cache(cached is not None)
        if cached is None:
            pending.append(index)
            continue
        trials[index] = cached
        if on_outcome is not None:
            on_outcome(BatchOutcome(index, trial=cached, cached=True))
    result = BatchResult(trials=trials, hits=total - len(pending))
    busy = 0.0

    def tick(tick_label: str) -> None:
        if progress is not None:
            progress(
                Progress(
                    done=result.hits + result.executed,
                    total=total,
                    elapsed=time.perf_counter() - start,
                    label=tick_label,
                    busy_seconds=busy,
                    failed=len(result.failures),
                )
            )

    if result.hits:
        tick(f"{label} (cached)")

    obs_config = obs.worker_args() if obs is not None else None
    payloads: Dict[int, Dict[str, Any]] = {}
    attempt = 1
    while pending:
        result.failures = {}
        tasks = [
            TrialTask(
                index=index,
                topology=planned[index].topology,
                spec=planned[index].spec,
                seed=planned[index].seed,
                obs_config=obs_config,
            )
            for index in pending
        ]
        round_span = (
            span(attempt_span, attempt=attempt, tasks=len(tasks))
            if attempt_span
            else nullcontext()
        )
        # closing(): a hook that raises must unwind the pool spans now,
        # not whenever the abandoned generator is collected.
        with round_span, closing(run_tasks(tasks, jobs)) as outcomes:
            for index, trial, payload, error in outcomes:
                if error is None:
                    item = planned[index]
                    if store is not None:
                        store.put(
                            item.key,
                            trial,
                            fingerprint=spec_fingerprint(
                                item.spec, item.topology, item.seed
                            ),
                        )
                    trials[index] = trial
                    if payload is not None:
                        payloads[index] = payload
                    result.executed += 1
                    busy += trial.warmup_wall + trial.convergence_wall
                else:
                    result.failures[index] = error
                if on_outcome is not None:
                    on_outcome(BatchOutcome(index, trial=trial, error=error))
                tick(label)
        if not result.failures or attempt >= max_attempts:
            break
        attempt += 1
        result.retried += len(result.failures)
        pending = list(result.failures)

    if obs is not None and payloads:
        with span("obs.absorb", payloads=len(payloads)):
            for index in sorted(payloads):
                obs.absorb(payloads[index])
    return result


def run_grid(
    topology_factory: Callable[[int], Any],
    cells: Sequence[GridCell],
    seeds: Sequence[int],
    *,
    progress: Optional[ProgressFn] = None,
    obs: Optional[ObsSession] = None,
    jobs: Optional[int] = None,
    store: Optional[Any] = None,
    label: str = "",
) -> List[ExperimentResult]:
    """Run every (cell, seed) trial as one batch; one result per cell.

    This is ``run_trials`` and the sweeps: one attempt per trial, and the
    first failure raises :class:`~repro.core.parallel.TrialExecutionError`
    carrying the trial's plan position and seed.  ``progress``, ``obs``,
    ``jobs`` and ``store`` fall back to the process-wide defaults
    (``live_progress``, ``observe``, ``parallel_jobs``, ``use_store``), so
    progress ticks count the whole grid and a ``jobs > 1`` grid is a
    single pool run however many cells it has.
    """
    if obs is None:
        obs = active_session()
    if progress is None:
        # The process-wide live monitor, if one is installed (this is
        # how `sweep --progress` reaches sweeps inside the figures).
        progress = default_progress()
    if store is None:
        from repro.store.result_store import default_store

        store = default_store()
    if jobs is None:
        jobs = get_default_jobs()
    total = len(cells) * len(seeds)
    with span("trials.run", trials=total, jobs=jobs):
        planned = plan_grid(
            topology_factory, cells, seeds, keyed=store is not None
        )

        def fail_fast(outcome: BatchOutcome) -> None:
            if outcome.error is not None:
                raise TrialExecutionError(
                    outcome.index, planned[outcome.index].seed, outcome.error
                )

        batch = run_batch(
            planned,
            jobs=jobs,
            store=store,
            obs=obs,
            on_outcome=fail_fast,
            progress=progress,
            label=label,
        )
        with span("trials.fold", trials=total):
            return fold_grid(cells, seeds, batch.trials)
