"""The one trial-batch pipeline: plan -> execute -> bank -> fold.

Every number the paper reports is a mean over repeated trials, and every
figure is a grid of them — cells ``(label, x, spec)`` x seeds — so both
drivers in this repo — :func:`repro.store.campaign.run_campaign` (which
runs every figure and every one-cell batch) and the service's
:class:`repro.service.executor.QueueExecutor` — run the same loop: look
each planned trial up in the store, execute what is missing (failures
reported, never raised), bank every success from the parent the moment
it lands, and hand worker observability back in plan order.  This
module is that loop, once:

* :class:`PlannedTrial` — the one record of a trial to run, from the
  planner to the worker pipe: what to run, the topology's content
  digest, the key it banks under and the grid cell it came from;
* :func:`plan_grid` / :func:`fold_grid` — the single grid expansion
  (one topology and one digest per seed, trials in (cell, seed) order)
  and the single seed-order fold back into one ``ExperimentResult`` per
  cell;
* :func:`run_tasks` — the single way to execute planned trials: in this
  process through :func:`~repro.core.parallel.execute_trial` when
  ``jobs <= 1``, on the process-wide warm
  :class:`~repro.core.parallel.WorkerPool` otherwise — a one-trial batch
  included, so a retry of a trial that just killed its worker never runs
  inside the parent;
* :func:`run_batch` — lookup, execute misses, bank, retry, absorb,
  with one :data:`MAX_ATTEMPTS` budget for every batch and one
  per-trial hook, ``on_outcome``, that sees each settled trial as a
  :class:`BatchOutcome`.  The callers differ only in the store and that
  hook (``run_campaign``: the caller's, e.g. the CLI's
  :class:`~repro.obs.live.LiveMonitor`, and exhausted trials raise
  ``CampaignError``; the service: it completes queue rows);
* :func:`eta_seconds` — the one remaining-time rule both of those hooks
  report.
"""

from __future__ import annotations

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
    TrialResult,
)
from repro.core.parallel import execute_trial, get_worker_pool
from repro.obs.session import ObsSession
from repro.obs.spans import span

#: One cell of a trial grid: (series label, swept value, point spec).
GridCell = Tuple[str, float, ExperimentSpec]

#: Executions a failing trial gets in one batch, the first included; a
#: retry only helps against environmental failures (a killed worker).
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class PlannedTrial:
    """One trial to run — the only shape a trial takes before it runs.

    ``digest`` is the content digest of ``topology``
    (:func:`repro.store.hashing.topology_digest`): the pool groups and
    caches by it and ``key`` (:func:`repro.store.hashing.trial_key`) is
    derived from it, so the planner computes it once per built topology.
    ``label`` and ``x`` name the grid cell the trial came from; its index
    is its plan position.
    """

    topology: Any
    spec: Any
    seed: int
    digest: str
    key: str
    label: str = ""
    x: float = 0.0


def run_tasks(
    planned: Sequence[PlannedTrial],
    indices: Sequence[int],
    jobs: int,
    obs_config: Optional[Dict[str, Any]] = None,
) -> Iterator[
    Tuple[int, Optional[TrialResult], Optional[Dict[str, Any]], Optional[str]]
]:
    """Execute ``planned[i]`` for every i in ``indices``; stream outcomes.

    Exactly one ``(index, trial, payload, error)`` per index, in
    completion order.  A trial that raises — or whose worker dies —
    comes back as an error string (``"ExcType: message"``), never as an
    exception, so the consumer decides between fail-fast and retry.
    ``jobs <= 1`` runs in this process, lazily (the next trial starts
    only when the consumer asks for the next outcome); ``jobs > 1`` runs
    on the warm pool, under ``pool.run``/``pool.collect`` spans; the
    ``pool.run`` span carries the run's delta of the pool's counters
    (:func:`~repro.core.parallel.pool_stats` names).  ``obs_config``
    is the batch's picklable session recipe
    (:meth:`repro.obs.session.ObsSession.worker_args`), or None when the
    run is unobserved; ``payload`` is the trial's observation record
    (:meth:`repro.obs.session.TrialObserver.record`).
    """
    if jobs <= 1:
        for index in indices:
            trial = planned[index]
            try:
                result, payload = execute_trial(
                    index, trial.topology, trial.spec, trial.seed, obs_config
                )
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                yield index, None, None, f"{type(exc).__name__}: {exc}"
            else:
                yield index, result, payload, None
        return
    with span(
        "pool.run", jobs=min(jobs, len(indices)), tasks=len(indices)
    ) as pool_span:
        with span("pool.collect", tasks=len(indices)):
            stats = yield from get_worker_pool().run_guarded(
                planned, indices, jobs, obs_config
            )
        pool_span.set(**stats)


def build_topology(
    topology_factory: Callable[[int], Any], seed: int
) -> Tuple[Any, str]:
    """Build one seed's topology and its content digest.

    The one place a built topology is digested: every key and
    fingerprint of the trials that share it derives from this value.
    """
    # Imported here: repro.store imports this module at its top.
    from repro.store.hashing import topology_digest

    with span("topology.build", seed=seed):
        topology = topology_factory(seed)
    return topology, topology_digest(topology)


def plan_grid(
    topology_factory: Callable[[int], Any],
    cells: Sequence[GridCell],
    seeds: Sequence[int],
) -> List[PlannedTrial]:
    """Expand cells x seeds into keyed planned trials, in (cell, seed)
    order.

    Each seed's topology is built and digested once, however many cells
    share it, and every trial's content key derives from that digest.
    """
    from repro.store.hashing import trial_key

    built = {seed: build_topology(topology_factory, seed) for seed in seeds}
    planned = []
    for label, x, spec in cells:
        for seed in seeds:
            topology, digest = built[seed]
            planned.append(
                PlannedTrial(
                    topology,
                    spec,
                    seed,
                    digest,
                    trial_key(spec, digest, seed),
                    label,
                    x,
                )
            )
    return planned


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

    ``index`` is the trial's position in its own batch's planned
    sequence, so a hook that sees several batches (a figure's grids)
    must not key on it.  Exactly one of ``trial`` / ``error`` is set;
    ``cached`` marks a trial served by the store lookup instead of an
    execution.  A successful trial is already banked when the hook runs.
    """

    index: int
    trial: Optional[TrialResult] = None
    error: Optional[str] = None
    cached: bool = False


def eta_seconds(
    open_trials: int, busy_seconds: float, executed: int, jobs: int
) -> Optional[float]:
    """Wall seconds to run ``open_trials`` more trials: the mean
    executed trial's wall time (``busy_seconds / executed``) x
    ``open_trials`` / ``jobs``, to 0.1 s.

    0.0 when nothing is open; None while work is open but no trial has
    executed yet — store hits carry no wall time to extrapolate from,
    so a cached prefix never projects lookup speed onto cold trials.
    """
    if open_trials <= 0:
        return 0.0
    if not executed:
        return None
    mean = busy_seconds / executed
    return round(open_trials * mean / max(1, jobs), 1)


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
    on_outcome: Optional[Callable[[BatchOutcome], None]] = None,
    attempt_span: Optional[str] = None,
) -> BatchResult:
    """Look up, execute the misses, bank, absorb — the shared loop.

    ``store`` is anything with ``get(key)`` / ``put(key, trial,
    fingerprint=...)``.  With one, every planned trial is looked up by
    its key first and every successful execution is written back from
    this process before the next outcome is consumed, so an interrupt
    loses only the trials still in flight.  A batch whose session
    monitors the data plane looks up with ``get(key, dataplane=True)``:
    a trial banked without the monitor carries no data-plane summary,
    so it is a miss, and the re-execution's ``put`` overwrites the row
    under the same key with the superset record.  A batch whose session
    samples runs storeless: probe ticks are engine events, so a sampled
    trial is not the result its key names, and a cached one would
    leave no samples.  Failed executions are
    re-run until :data:`MAX_ATTEMPTS` rounds have been spent; what still
    fails is returned in :attr:`BatchResult.failures`, never raised.

    ``on_outcome`` sees every settled trial — store hits during lookup,
    then executions in completion order, after banking.  An exception it
    raises propagates and abandons the rest of the batch (that is the
    service's graceful stop).

    Observation records are absorbed into ``obs`` in plan order once
    execution is over, whatever order the trials completed in, each
    beside the spec and topology summary it was planned with.
    ``attempt_span`` names a span opened around each execution round.
    """
    obs_config = obs.worker_args() if obs is not None else None
    if obs_config and obs_config.get("sample_interval") is not None:
        store = None
    if store is not None:
        from repro.store.hashing import trial_fingerprint

    total = len(planned)
    trials: List[Optional[TrialResult]] = [None] * total
    pending: List[int] = []
    monitored = bool(obs_config and obs_config.get("dataplane"))
    lookup = {"dataplane": True} if monitored else {}
    for index, item in enumerate(planned):
        cached = None
        if store is not None:
            cached = store.get(item.key, **lookup)
        if cached is None:
            pending.append(index)
            continue
        trials[index] = cached
        if on_outcome is not None:
            on_outcome(BatchOutcome(index, trial=cached, cached=True))
    result = BatchResult(trials=trials, hits=total - len(pending))
    payloads: Dict[int, Dict[str, Any]] = {}
    attempt = 1
    while pending:
        result.failures = {}
        round_span = (
            span(attempt_span, attempt=attempt, tasks=len(pending))
            if attempt_span
            else nullcontext()
        )
        # closing(): a hook that raises must unwind the pool spans now,
        # not whenever the abandoned generator is collected.
        with round_span, closing(
            run_tasks(planned, pending, jobs, obs_config)
        ) as outcomes:
            for index, trial, payload, error in outcomes:
                if error is None:
                    item = planned[index]
                    if store is not None:
                        store.put(
                            item.key,
                            trial,
                            fingerprint=trial_fingerprint(
                                item.spec, item.digest, item.seed
                            ),
                        )
                    trials[index] = trial
                    if payload is not None:
                        payloads[index] = payload
                    result.executed += 1
                else:
                    result.failures[index] = error
                if on_outcome is not None:
                    on_outcome(BatchOutcome(index, trial=trial, error=error))
        if not result.failures or attempt >= MAX_ATTEMPTS:
            break
        attempt += 1
        result.retried += len(result.failures)
        pending = list(result.failures)

    if obs is not None and payloads:
        with span("obs.absorb", payloads=len(payloads)):
            for index in sorted(payloads):
                item = planned[index]
                obs.absorb(
                    payloads[index],
                    spec=item.spec,
                    topology=item.topology.summary(),
                )
    return result
