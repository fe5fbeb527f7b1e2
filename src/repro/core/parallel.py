"""Parallel trial execution: fan whole trials out across worker processes.

Every figure in the paper is a sweep of many *independent* trials — each
one a full warm-up + failure + convergence simulation with its own
topology and seed — which makes the workload embarrassingly parallel the
same way SSFNet's parallel event-driven substrate exploited.  This module
provides the two pieces the batch pipeline (:mod:`repro.core.batch`)
executes its :class:`~repro.core.batch.PlannedTrial` records with:

* :func:`execute_trial` — run one planned trial and return ``(TrialResult,
  observation record)``.  Serial and parallel runs both go through it, so
  both hand the session the same picklable records and switching ``jobs``
  never changes what a session records;
* :class:`WorkerPool` — the process-wide pool of warm workers behind
  ``jobs > 1``.  Trials complete out of order; the caller folds results
  back in submission (seed) order, which is what makes a parallel
  :class:`~repro.core.experiment.ExperimentResult` *bit-identical* to a
  serial one on the same master seed.

The warm worker pool
--------------------
A cold ``ProcessPoolExecutor`` per run that pickles the full built
topology into every task loses to its own overhead on short trials.
:class:`WorkerPool` keeps long-lived workers and ships each topology
once per chunk of trials, not once per trial:

* **Persistent warm workers.**  One process-wide pool
  (:func:`get_worker_pool`), created on first use, reused by every
  campaign and service batch, reaped at interpreter exit
  (or explicitly via :func:`shutdown_worker_pool`).  Spin-up is paid
  once per process, not once per batch.
* **A chunk carries its topology.**  Trials are grouped by topology
  *content digest* — computed once by the planner and carried on every
  record — into chunks (:func:`plan_chunks`), and a chunk crosses the
  pipe as one message (:func:`chunk_message`): the topology its trials
  share, pickled once, the batch's obs recipe, and its trials as
  ``(index, spec, seed)``.  Workers keep nothing between chunks.
* **One dispatch rule.**  Chunks leave in plan order; the head chunk
  goes to the least-loaded live worker with fewer than
  ``_MAX_INFLIGHT_CHUNKS`` chunks in flight (:func:`free_worker`).
* **Streamed, compact results.**  After its ``ready`` handshake a
  worker sends one message per finished trial and nothing else
  (outcomes stream; a chunk is over when its last outcome lands),
  and an observed trial's record states each fact once and omits what
  no recorder filled (:meth:`repro.obs.session.TrialObserver.record`).

Determinism contract
--------------------
A trial is a pure function of ``(topology, spec, seed)``: random streams
are derived via BLAKE2b (process-independent, ``PYTHONHASHSEED``-immune),
topologies are built in the parent exactly as the serial path does (so
factories never need to be picklable) and reach a worker by one pickled
round-trip, and results are folded in plan order regardless of
completion order.  Workers therefore produce the identical
:class:`TrialResult` the parent would have, and ``jobs=N`` equals
``jobs=1`` bit for bit, warm pool or cold, fork or spawn.

The worker count is a plain argument: ``run_campaign`` and
``compute_figure`` take ``jobs=`` (the service its ``ServiceConfig.jobs``)
and run serially without it.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.experiment import TrialResult, simulate_trial
from repro.obs.session import TrialObserver
from repro.obs.spans import record_spans, span
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - batch imports this module
    from repro.core.batch import PlannedTrial

#: How many chunks a worker may have queued at once.  2 keeps a worker's
#: next chunk in its pipe while the current one runs (no idle gap), while
#: leaving the rest of the queue schedulable on whichever worker frees
#: up first.
_MAX_INFLIGHT_CHUNKS = 2


def derive_trial_seeds(master_seed: int, count: int) -> List[int]:
    """Expand one master seed into ``count`` unique per-trial seeds.

    Derivation goes through the same BLAKE2b keyed hash the named random
    streams use, so the expansion is stable across processes and Python
    versions; collisions (astronomically unlikely) are skipped so the
    returned seeds are guaranteed distinct.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    with span("parallel.derive_seeds", count=count):
        seeds: List[int] = []
        seen = set()
        index = 0
        while len(seeds) < count:
            # >> 1 keeps the seed in RandomStreams' non-negative range.
            seed = derive_seed(master_seed, f"trial:{index}") >> 1
            index += 1
            if seed in seen:
                continue
            seen.add(seed)
            seeds.append(seed)
        return seeds


def execute_trial(
    index: int,
    topology: Any,
    spec: Any,
    seed: int,
    obs_config: Optional[Dict[str, Any]] = None,
) -> Tuple[TrialResult, Optional[Dict[str, Any]]]:
    """Run one planned trial (the worker entry point; also used serially).

    Takes the planned trial's fields, not the record: that is what a
    worker holds once it has unpacked a chunk.  When the batch carries
    an obs recipe, a :class:`~repro.obs.session.TrialObserver` built
    from it observes the run, and its observation record — metrics,
    phase timings, probe samples, profiler rows, the trial snapshot and
    (when the session has a sink) the trial's raw trace records —
    is returned beside the result for the session to absorb.  The
    recipe is the only thing consulted, so a trial is observed the same
    way in this process as in a worker.
    """
    observer = None
    spans_ctx = nullcontext()
    if obs_config is not None:
        observer = TrialObserver(obs_config)
        if observer.span_recorder is not None:  # (an empty one is falsy)
            # Trial-local span recording: the rows ride home in the
            # record and the session grafts them under "workers/".
            spans_ctx = record_spans(observer.span_recorder)
    with spans_ctx:
        with span("trial.execute", index=index, seed=seed):
            result = simulate_trial(topology, spec, seed, observer=observer)
    return result, (observer.record() if observer is not None else None)


# ---------------------------------------------------------------------------
# The persistent warm worker pool
# ---------------------------------------------------------------------------


def default_start_method() -> str:
    """The pool's process start method (``REPRO_POOL_START_METHOD`` or
    ``fork`` where available, ``spawn`` elsewhere)."""
    override = os.environ.get("REPRO_POOL_START_METHOD")
    if override:
        return override
    # Imported on first use here and below: a serial trial never needs
    # the multiprocessing stack.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(conn: Any) -> None:
    """Worker process loop: receive chunks, run trials, stream results.

    Protocol (parent -> worker): :func:`chunk_message` and
    ``("close",)``.  Worker -> parent: ``("ready",)`` once at boot, then
    one ``("outcome", run_id, chunk_id, index, result, payload, error)``
    per trial — exactly one of result / error set, the error an
    ``"ExcType: message"`` string — and nothing else.
    """
    # A forked child inherits the parent's live span recorder and open
    # span path, which mean nothing here.  Reset them so worker spans
    # come only from each chunk's obs recipe (exactly what a spawned
    # worker sees).  An inherited active session needs no reset:
    # execute_trial never consults it.
    from repro.obs import spans as _spans_mod

    _spans_mod._RECORDER = None
    _spans_mod._PATH.set("")

    try:
        conn.send(("ready",))
        while True:
            message = conn.recv()
            if message[0] == "close":
                break
            _, run_id, chunk_id, topology, obs_config, trials = message
            for index, spec, seed in trials:
                try:
                    outcome = execute_trial(
                        index, topology, spec, seed, obs_config
                    ) + (None,)
                except Exception as exc:
                    outcome = (None, None, f"{type(exc).__name__}: {exc}")
                conn.send(("outcome", run_id, chunk_id, index) + outcome)
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class _WorkerHandle:
    """Parent-side record of one pool worker.

    Plain data: the scheduling functions below read and update it
    without touching ``process`` or ``conn``, so they run (and are
    tested) without either.
    """

    __slots__ = (
        "process",
        "conn",
        "ready",
        "spawned_at",
        "spinup_seconds",
        "remaining",
        "alive",
    )

    def __init__(self, process: Any = None, conn: Any = None) -> None:
        self.process = process
        self.conn = conn
        self.ready = False
        self.spawned_at = time.perf_counter()
        self.spinup_seconds: Optional[float] = None
        #: (run_id, chunk_id) -> plan indices still unanswered, for every
        #: chunk sent whose last outcome has not landed.
        self.remaining: Dict[Tuple[int, int], List[int]] = {}
        self.alive = True


#: One message's worth of trials sharing a topology:
#: (chunk id, topology digest, plan indices in submission order).
Chunk = Tuple[int, str, List[int]]


def _chunk_size(n_trials: int, workers: int) -> int:
    # ~4 chunks per worker balances stragglers against per-message
    # overhead; tiny runs degrade to one trial per chunk.
    return max(1, math.ceil(n_trials / (workers * 4)))


def plan_chunks(
    keyed: Sequence[Tuple[int, str]], workers: int
) -> List[Chunk]:
    """Chunk ``(plan index, topology digest)`` pairs for ``workers``.

    Trials are grouped by digest (submission order preserved within a
    group) so one message's trials share one topology.
    """
    size = _chunk_size(len(keyed), workers)
    groups: Dict[str, List[int]] = {}
    for index, digest in keyed:
        groups.setdefault(digest, []).append(index)
    chunks: List[Chunk] = []
    for digest, members in groups.items():
        for start in range(0, len(members), size):
            chunks.append((len(chunks), digest, members[start : start + size]))
    return chunks


def free_worker(workers: Sequence[_WorkerHandle]) -> Optional[_WorkerHandle]:
    """The worker the head chunk goes to, or None when nobody is free.

    The least-loaded live worker with fewer than
    ``_MAX_INFLIGHT_CHUNKS`` chunks in flight; ties go to the earliest.
    """
    free = [
        w
        for w in workers
        if w.alive and len(w.remaining) < _MAX_INFLIGHT_CHUNKS
    ]
    return min(free, key=lambda w: len(w.remaining), default=None)


def chunk_message(
    run_id: int,
    chunk: Chunk,
    planned: Sequence["PlannedTrial"],
    obs_config: Optional[Dict[str, Any]],
) -> Tuple[Any, ...]:
    """What crosses the pipe for one chunk: the topology its trials
    share and the batch's obs recipe once, its trials as ``(index, spec,
    seed)``."""
    chunk_id, _digest, members = chunk
    return (
        "chunk",
        run_id,
        chunk_id,
        planned[members[0]].topology,
        obs_config,
        [(i, planned[i].spec, planned[i].seed) for i in members],
    )


def lost_trials(worker: _WorkerHandle, run_id: Optional[int]) -> List[int]:
    """Mark ``worker`` dead; the plan indices of ``run_id`` it still owed.

    Chunks of earlier, abandoned runs that the worker had not finished
    are dropped with it: their indices mean nothing to the current run.
    """
    worker.alive = False
    lost = [
        index
        for (chunk_run, _chunk_id), unanswered in worker.remaining.items()
        if chunk_run == run_id
        for index in unanswered
    ]
    worker.remaining.clear()
    return lost


#: The pool's counters, all zero (``pool_stats()`` before first use; every
#: pool starts from a copy).  ``runs`` / ``tasks`` / ``workers_reused``
#: move when a run starts; ``chunks`` and the cache counts when a chunk
#: is sent — its first trial pays for the topology it ships
#: (``cache_misses`` counts chunks), the rest ride along
#: (``cache_hits``, so hits + misses == tasks); the last two as a worker
#: boots and reports in.
_ZERO_TOTALS: Dict[str, float] = {
    "runs": 0,
    "tasks": 0,
    "chunks": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "workers_spawned": 0,
    "workers_reused": 0,
    "spinup_seconds": 0.0,
}


@dataclass
class _Run:
    """One ``run_guarded`` call's scheduling state."""

    id: int
    planned: Sequence["PlannedTrial"]
    obs_config: Optional[Dict[str, Any]]
    #: Chunks not yet sent, in dispatch order.
    pending: "deque[Chunk]"
    #: The workers this run dispatches to (replacements appended).
    workers: List[_WorkerHandle]


def collect(
    worker: _WorkerHandle,
    message: Tuple[Any, ...],
    run: Optional[_Run],
    totals: Dict[str, float],
) -> Optional[Tuple[Any, ...]]:
    """Fold one worker message into pool state.

    Returns the ``(index, result, payload, error)`` outcome the message
    carries for ``run``, if any.  A handshake is folded in whatever run
    it lands in, and an outcome leaves its chunk's ``remaining`` entry —
    closing it with the chunk's last one — whichever run it belongs to:
    that is what frees the in-flight slots an abandoned run held.
    """
    if message[0] == "ready":
        worker.ready = True
        worker.spinup_seconds = time.perf_counter() - worker.spawned_at
        totals["spinup_seconds"] += worker.spinup_seconds
        return None
    chunk, index = message[1:3], message[3]
    unanswered = worker.remaining[chunk]
    unanswered.remove(index)
    if not unanswered:
        del worker.remaining[chunk]
    if run is None or chunk[0] != run.id:
        return None
    return message[3:]


class WorkerPool:
    """A persistent pool of warm trial workers.

    One instance normally serves the whole process (see
    :func:`get_worker_pool`); tests construct private pools to control
    ``start_method``.  Workers are spawned on
    demand (up to the largest ``jobs`` ever requested), survive across
    runs, and are reaped by :meth:`close` or at interpreter
    exit.
    """

    def __init__(self, start_method: Optional[str] = None) -> None:
        import multiprocessing

        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._workers: List[_WorkerHandle] = []
        self.closed = False
        #: The pool's only bookkeeping, incremented in place; pool_stats()
        #: is a copy and what a run cost is the difference of two copies.
        self.totals = dict(_ZERO_TOTALS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workers_alive(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name="repro-pool-worker",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        self._workers.append(handle)
        self.totals["workers_spawned"] += 1
        return handle

    def prewarm(self, jobs: int, timeout: float = 30.0) -> int:
        """Spawn up to ``jobs`` workers now; wait for their handshakes.

        Normally workers boot lazily on the first run.  The
        campaign service prewarms instead: under the ``fork`` start
        method children must be forked before the daemon starts its HTTP
        handler threads (forking a multi-threaded process risks
        inheriting locks mid-acquire), and an eager boot also moves the
        spin-up cost out of the first request's latency.  Returns the
        number of workers that completed the ready handshake within
        ``timeout`` (stragglers stay usable — the handshake is folded in
        during the next run).
        """
        if self.closed:
            raise RuntimeError("cannot prewarm a closed WorkerPool")
        while self.workers_alive < jobs:
            self._spawn_worker()
        deadline = time.monotonic() + timeout
        while (left := deadline - time.monotonic()) > 0:
            if self._pump(lambda w: not w.ready, timeout=left) is None:
                break
        return sum(1 for w in self._workers if w.alive and w.ready)

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down and mark the pool unusable.

        ``timeout`` bounds the cooperative join; workers still alive
        after it are terminated.  The service daemon passes its drain
        budget through here so SIGTERM never hangs on a stuck worker.
        """
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("close",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stragglers
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            worker.alive = False
        self._workers.clear()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, float]:
        """Cumulative lifetime counters (a copy) plus ``workers_alive``."""
        return dict(self.totals, workers_alive=self.workers_alive)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_guarded(
        self,
        planned: Sequence["PlannedTrial"],
        indices: Sequence[int],
        jobs: int,
        obs_config: Optional[Dict[str, Any]] = None,
    ) -> Generator[Tuple[Any, ...], None, Dict[str, float]]:
        """Execute ``planned[i]`` for every i in ``indices``, yielding
        failures instead of raising.

        Outcomes stream in completion order as ``(index, result,
        payload, error)`` with exactly one entry per index — worker-side
        exceptions and worker deaths become error strings on the
        affected trials, never pool-wide aborts.  A consumer that stops
        iterating abandons the run: chunks already in worker pipes still
        run to completion, the next run ignores their results, and a
        worker that dies holding them takes them with it.  The
        generator's return value (``stats = yield from ...``) is what
        the run cost and reused: how far it moved each of ``totals``.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        before = dict(self.totals)
        want = max(1, min(jobs, len(indices)))
        chunks = plan_chunks([(i, planned[i].digest) for i in indices], want)
        self.totals["runs"] += 1
        self.totals["tasks"] += len(indices)
        self.totals["workers_reused"] += min(want, self.workers_alive)
        while self.workers_alive < want:
            self._spawn_worker()
        run = _Run(
            id=self.totals["runs"],
            planned=planned,
            obs_config=obs_config,
            pending=deque(chunks),
            workers=[w for w in self._workers if w.alive][:want],
        )
        self._drain_stale()
        owed = len(indices)
        outcomes = self._dispatch(run)
        while outcomes is not None:
            yield from outcomes
            owed -= len(outcomes)
            outcomes = self._advance(run) if owed else None
        return {name: self.totals[name] - was for name, was in before.items()}

    # -- scheduling internals -------------------------------------------
    def _bury(
        self, worker: _WorkerHandle, run: Optional[_Run]
    ) -> List[Tuple[Any, ...]]:
        """A dead worker's unanswered trials of ``run``, as error outcomes."""
        error = (
            f"RuntimeError: worker process died "
            f"(pid {worker.process.pid}, exit {worker.process.exitcode})"
        )
        return [
            (index, None, None, error)
            for index in lost_trials(worker, run.id if run else None)
        ]

    def _receive(
        self, worker: _WorkerHandle, run: Optional[_Run] = None
    ) -> List[Tuple[Any, ...]]:
        """Read one message from ``worker``; the outcomes of ``run`` it
        settles (bookkeeping only when there is no current run)."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return self._bury(worker, run)
        outcome = collect(worker, message, run, self.totals)
        return [] if outcome is None else [outcome]

    def _pump(
        self,
        watch: Callable[[_WorkerHandle], Any],
        run: Optional[_Run] = None,
        timeout: Optional[float] = None,
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Wait once on the alive workers ``watch`` selects and receive
        from those with a message; None when it selects no worker."""
        from multiprocessing.connection import wait

        watched = {w.conn: w for w in self._workers if w.alive and watch(w)}
        if not watched:
            return None
        outcomes: List[Tuple[Any, ...]] = []
        for conn in wait(list(watched), timeout):
            outcomes += self._receive(watched[conn], run)
        return outcomes

    def _drain_stale(self) -> None:
        """Consume leftover messages from abandoned runs."""
        for worker in self._workers:
            try:
                while worker.alive and worker.conn.poll(0):
                    self._receive(worker)
            except OSError:
                lost_trials(worker, None)

    def _dispatch(self, run: _Run) -> List[Tuple[Any, ...]]:
        """Send queued chunks, head first, while a worker is free.

        Returns error outcomes for the trials of workers found dead on
        the way (normally none).
        """
        lost: List[Tuple[Any, ...]] = []
        while run.pending:
            worker = free_worker(run.workers)
            if worker is None:
                break
            chunk_id, _digest, members = chunk = run.pending[0]
            message = chunk_message(run.id, chunk, run.planned, run.obs_config)
            with span("pool.submit", chunk=chunk_id, trials=len(members)):
                try:
                    worker.conn.send(message)
                except (OSError, ValueError):
                    # The chunk stays queued for a live worker.
                    lost += self._bury(worker, run)
                    continue
            run.pending.popleft()
            worker.remaining[(run.id, chunk_id)] = list(members)
            self.totals["chunks"] += 1
            self.totals["cache_misses"] += 1
            self.totals["cache_hits"] += len(members) - 1
        return lost

    def _advance(self, run: _Run) -> Optional[List[Tuple[Any, ...]]]:
        """Wait for worker messages once and dispatch behind them.

        Returns the outcomes that settled (possibly none yet), or None
        when the run can make no further progress.
        """
        outcomes = self._pump(lambda w: w.remaining or not w.ready, run)
        if outcomes is not None:
            return outcomes + self._dispatch(run)
        if run.pending and not self.closed:
            # Every worker died with chunks still queued: spawn a
            # replacement and keep going (campaign retries decide
            # whether the failure was environmental).
            run.workers.append(self._spawn_worker())
            return self._dispatch(run)
        # Nothing running and nothing to dispatch to: whatever is still
        # queued is unrecoverable.
        lost = [
            (index, None, None, "RuntimeError: worker pool lost the trial")
            for _chunk_id, _digest, members in run.pending
            for index in members
        ]
        run.pending.clear()
        return lost or None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WorkerPool method={self.start_method} "
            f"workers={self.workers_alive} runs={int(self.totals['runs'])}>"
        )


#: The process-wide pool (created lazily, reaped at exit).
_POOL: Optional[WorkerPool] = None


def get_worker_pool() -> WorkerPool:
    """The process-wide warm pool, created on first use."""
    global _POOL
    if _POOL is None or _POOL.closed:
        _POOL = WorkerPool()
    return _POOL


def shutdown_worker_pool(timeout: Optional[float] = None) -> None:
    """Close the process-wide pool (a new one is created on next use).

    ``timeout`` optionally bounds the worker join (see
    :meth:`WorkerPool.close`); None keeps the default.
    """
    global _POOL
    if _POOL is not None:
        if timeout is None:
            _POOL.close()
        else:
            _POOL.close(timeout=timeout)
        _POOL = None


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    shutdown_worker_pool()


def pool_stats() -> Dict[str, float]:
    """Cumulative stats of the process-wide pool (zeros before first use)."""
    if _POOL is None:
        return dict(_ZERO_TOTALS, workers_alive=0)
    return _POOL.stats_snapshot()
