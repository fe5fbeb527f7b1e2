"""Parallel trial execution: fan whole trials out across worker processes.

Every figure in the paper is a sweep of many *independent* trials — each
one a full warm-up + failure + convergence simulation with its own
topology and seed — which makes the workload embarrassingly parallel the
same way SSFNet's parallel event-driven substrate exploited.  This module
provides the two pieces the batch pipeline (:mod:`repro.core.batch`)
executes trials with:

* :func:`execute_trial` — run one :class:`TrialTask` and return
  ``(index, TrialResult, obs payload)``.  Serial and parallel runs both
  go through it, so both round-trip observability through the same
  picklable payloads and switching ``jobs`` never changes what a
  session records;
* :class:`WorkerPool` — the process-wide pool of warm workers behind
  ``jobs > 1``.  Trials complete out of order; the caller folds results
  back in submission (seed) order, which is what makes a parallel
  :class:`~repro.core.experiment.ExperimentResult` *bit-identical* to a
  serial one on the same master seed.

The warm worker pool
--------------------
A cold ``ProcessPoolExecutor`` per run that pickles the full built
topology into every task loses to its own overhead on short trials
(BENCH_sweep.json: 0.8x at jobs=2).  :class:`WorkerPool` keeps
long-lived workers that amortize every fixed cost:

* **Persistent warm workers.**  One process-wide pool
  (:func:`get_worker_pool`), created on first use, reused by every
  ``run_trials`` / sweep / campaign call, reaped at interpreter exit
  (or explicitly via :func:`shutdown_worker_pool`).  Spin-up is paid
  once per process, not once per batch.
* **Per-worker topology cache.**  Tasks cross the pipe as a lean wire
  record — spec, seed, obs recipe and a *content digest* of the built
  topology (:func:`repro.store.hashing.topology_digest`).  The topology
  itself ships to a given worker at most once per digest; afterwards the
  worker replays trials against its cached copy.  Caches are bounded LRU
  (:data:`DEFAULT_TOPOLOGY_CACHE` entries); the parent mirrors
  each worker's cache state deterministically, so it always knows what
  to ship.
* **Copy-on-write sharing on fork platforms.**  When the start method is
  ``fork`` (the Linux default), topologies already built at spawn time
  are published in a module global the forked children inherit — those
  workers start with the run's topologies pre-pinned at zero
  serialization cost.  ``spawn`` falls back to ship-once semantics with
  identical results.
* **Digest-affinity chunk scheduling.**  Tasks are grouped by topology
  digest and dispatched as chunks (batches of trials per message); free
  workers prefer chunks whose topology they already hold, so campaigns —
  which group trials by grid cell — keep hitting warm caches.
* **Streamed, compact results.**  Workers send one ``(index, result,
  obs payload)`` message per finished trial (progress ticks stream), and
  observed sessions prune empty payload sections before pickling
  (:meth:`repro.obs.session.ObsSession.worker_payload`).

Determinism contract
--------------------
A trial is a pure function of ``(topology, spec, seed)``: random streams
are derived via BLAKE2b (process-independent, ``PYTHONHASHSEED``-immune),
topologies are built in the parent exactly as the serial path does (and
reach workers either by fork-inherited reference or by one pickled
round-trip — the same bytes the cold pool shipped per trial), and results
are folded in task order regardless of completion order.  Workers
therefore produce the identical :class:`TrialResult` the parent would
have, and ``jobs=N`` equals ``jobs=1`` bit for bit, warm pool or cold,
fork or spawn.

The ``--jobs`` default used by the sweep drivers is a module-level
setting so deep call stacks (the figure harness) pick it up without
threading a parameter through thirteen figure modules::

    with parallel_jobs(4):
        compute_figure("fig03")
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import time
from collections import OrderedDict, deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs.spans import record_spans, span
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.experiment import TrialResult

#: A finished trial: (submission index, measurement, obs payload or None).
TrialOutcome = Tuple[int, "TrialResult", Optional[Dict[str, Any]]]

#: A guarded outcome: (index, result or None, payload or None, error or
#: None) — errors are reported as ``"ExcType: message"`` strings, never
#: raised.
GuardedOutcome = Tuple[
    int, Optional["TrialResult"], Optional[Dict[str, Any]], Optional[str]
]

#: Module-level default for ``jobs`` when callers pass None (see
#: :func:`parallel_jobs`); 1 keeps every entry point serial by default.
_DEFAULT_JOBS = 1

#: Per-worker topology cache capacity (entries, LRU).  Pinned
#: fork-inherited topologies live outside this bound (they cost no
#: serialization and stay copy-on-write shared until written).
DEFAULT_TOPOLOGY_CACHE = 8

#: How many chunks a worker may have queued at once.  2 keeps a worker's
#: next chunk in its pipe while the current one runs (no idle gap), while
#: leaving the rest of the queue schedulable on whichever worker frees
#: up first.
_MAX_INFLIGHT_CHUNKS = 2


def get_default_jobs() -> int:
    """The process-wide default worker count (1 = serial)."""
    return _DEFAULT_JOBS


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count."""
    global _DEFAULT_JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


@contextmanager
def parallel_jobs(jobs: int) -> Iterator[int]:
    """Scope the default worker count to a ``with`` block.

    This is how the CLI's ``--jobs`` reaches sweeps buried inside the
    figure harness without changing every figure module's signature.
    """
    previous = get_default_jobs()
    set_default_jobs(jobs)
    try:
        yield jobs
    finally:
        set_default_jobs(previous)


def derive_trial_seeds(
    master_seed: int, count: int, name: str = "trial"
) -> List[int]:
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
            seed = derive_seed(master_seed, f"{name}:{index}") >> 1
            index += 1
            if seed in seen:
                continue
            seen.add(seed)
            seeds.append(seed)
        return seeds


@dataclass(frozen=True)
class TrialTask:
    """Everything one worker needs to run one trial.

    The topology is built *in the parent* (exactly as the serial path
    does), so topology factories never need to be picklable and
    factory-side global state behaves identically under both backends.
    The pool backend ships it to each worker at most once per content
    digest (see :class:`WorkerPool`).  ``obs_config`` is the picklable
    session recipe from
    :meth:`repro.obs.session.ObsSession.worker_args`, or None when the
    run is unobserved.
    """

    index: int
    topology: Any
    spec: Any
    seed: int
    obs_config: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class _WireTask:
    """The lean cross-process form of a :class:`TrialTask`.

    Carries the topology's content digest instead of the topology; the
    worker resolves it against its cache (or the chunk's shipped
    entries).
    """

    index: int
    spec: Any
    seed: int
    obs_config: Optional[Dict[str, Any]]
    digest: str


class TrialExecutionError(RuntimeError):
    """A trial of a fail-fast batch failed; carries which one and why."""

    def __init__(self, index: int, seed: int, error: str) -> None:
        super().__init__(f"trial {index} (seed {seed}) failed: {error}")
        self.index = index
        self.seed = seed
        self.error = error


def execute_trial(task: TrialTask) -> TrialOutcome:
    """Run one trial (the worker entry point; also used serially).

    When the task carries an obs recipe, a fresh worker-local
    :class:`~repro.obs.session.ObsSession` observes the run and its
    entire state — metrics, phase timings, probe samples, profiler rows,
    exploration summaries and (when the parent has a trace sink)
    the raw trace records — is returned as a picklable payload for the
    parent session to absorb.
    """
    # Imported here, not at module level: experiment.py imports this
    # module at its top, and workers only pay the import once per process.
    from repro.core.experiment import run_experiment

    obs = None
    spans_ctx = nullcontext()
    if task.obs_config is not None:
        from repro.obs.session import ObsSession

        obs = ObsSession.for_worker(task.obs_config)
        if obs.span_recorder is not None:
            # Worker-local span recording: the records ride home in the
            # obs payload and the parent grafts them under "workers/".
            spans_ctx = record_spans(obs.span_recorder)
    with spans_ctx:
        with span("trial.execute", index=task.index, seed=task.seed):
            result = run_experiment(
                task.topology, task.spec, seed=task.seed, obs=obs
            )
    payload = obs.worker_payload() if obs is not None else None
    return task.index, result, payload


# ---------------------------------------------------------------------------
# The persistent warm worker pool
# ---------------------------------------------------------------------------

#: Topologies published for fork-inherited copy-on-write sharing.  Set
#: immediately before spawning a worker under the ``fork`` start method
#: and cleared right after (the child's memory snapshot keeps its copy);
#: always empty in steady state.
_FORK_TOPOLOGIES: Dict[str, Any] = {}


def default_start_method() -> str:
    """The pool's process start method (``REPRO_POOL_START_METHOD`` or
    ``fork`` where available, ``spawn`` elsewhere)."""
    override = os.environ.get("REPRO_POOL_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _topology_digest(topology: Any) -> str:
    # Imported lazily: store.hashing pulls in the spec layer, which the
    # serial fast path never needs.
    from repro.store.hashing import topology_digest

    return topology_digest(topology)


def _worker_main(conn: Any, cache_capacity: int) -> None:
    """Worker process loop: receive chunks, run trials, stream results.

    Protocol (parent -> worker): ``("chunk", run_id, chunk_id,
    [wire_tasks], {digest: topology})`` and ``("close",)``.
    Worker -> parent: ``("ready", pid, [pinned digests])`` once at boot,
    then per chunk one ``("done", run_id, outcome)`` or ``("err",
    run_id, index, seed, exception)`` per trial followed by
    ``("chunk_done", run_id, chunk_id, stats)``.
    """
    # A forked child inherits the parent's live span recorder, active
    # obs sessions and open span path — none of which mean anything
    # here.  Reset them so worker observability comes only from each
    # task's obs recipe (exactly what a spawned worker sees).
    from repro.obs import session as _session_mod
    from repro.obs import spans as _spans_mod

    _spans_mod._RECORDER = None
    _spans_mod._PATH.set("")
    _session_mod._ACTIVE.clear()

    pinned: Dict[str, Any] = dict(_FORK_TOPOLOGIES)
    cache: "OrderedDict[str, Any]" = OrderedDict()
    try:
        conn.send(("ready", os.getpid(), sorted(pinned)))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "close":
                break
            if kind != "chunk":  # pragma: no cover - future protocol room
                continue
            _, run_id, chunk_id, wire_tasks, shipped = message
            stats = {
                "cache_hits": 0,
                "cache_misses": 0,
                "evictions": 0,
                "shipped": len(shipped),
                "trials": 0,
            }
            for digest, topology in shipped.items():
                cache[digest] = topology
                cache.move_to_end(digest)
                while len(cache) > cache_capacity:
                    cache.popitem(last=False)
                    stats["evictions"] += 1
            fresh: Set[str] = set(shipped)
            for wire in wire_tasks:
                digest = wire.digest
                topology = pinned.get(digest)
                if topology is None:
                    topology = cache.get(digest)
                    if topology is not None:
                        cache.move_to_end(digest)
                if digest in fresh:
                    fresh.discard(digest)
                    stats["cache_misses"] += 1
                else:
                    stats["cache_hits"] += 1
                if topology is None:
                    # Parent/worker cache models diverged — a protocol
                    # bug, surfaced as a per-trial error so the run
                    # fails loudly instead of hanging.
                    conn.send(
                        (
                            "err",
                            run_id,
                            wire.index,
                            wire.seed,
                            RuntimeError(
                                f"worker lost topology {digest} "
                                f"(cache capacity {cache_capacity})"
                            ),
                        )
                    )
                    continue
                task = TrialTask(
                    index=wire.index,
                    topology=topology,
                    spec=wire.spec,
                    seed=wire.seed,
                    obs_config=wire.obs_config,
                )
                try:
                    outcome = execute_trial(task)
                except Exception as exc:
                    try:
                        conn.send(
                            ("err", run_id, wire.index, wire.seed, exc)
                        )
                    except Exception:
                        # The exception itself would not pickle; ship a
                        # faithful textual stand-in instead.
                        conn.send(
                            (
                                "err",
                                run_id,
                                wire.index,
                                wire.seed,
                                RuntimeError(
                                    f"{type(exc).__name__}: {exc}"
                                ),
                            )
                        )
                else:
                    conn.send(("done", run_id, outcome))
                stats["trials"] += 1
            conn.send(("chunk_done", run_id, chunk_id, stats))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class _WorkerHandle:
    """Parent-side bookkeeping for one pool worker."""

    __slots__ = (
        "process",
        "conn",
        "pinned",
        "holds",
        "ready",
        "spawned_at",
        "spinup_seconds",
        "runs_served",
        "inflight",
        "remaining",
        "alive",
    )

    def __init__(self, process: Any, conn: Any, pinned: Set[str]) -> None:
        self.process = process
        self.conn = conn
        #: Digests pinned by fork inheritance (never evicted).
        self.pinned = pinned
        #: Mirror of the worker's LRU cache (insertion == recency order).
        self.holds: "OrderedDict[str, bool]" = OrderedDict()
        self.ready = False
        self.spawned_at = time.perf_counter()
        self.spinup_seconds: Optional[float] = None
        self.runs_served = 0
        #: Chunks sent but not yet chunk_done-acknowledged.
        self.inflight = 0
        #: (run_id, chunk_id) -> {index: seed} still unanswered.
        self.remaining: Dict[Tuple[int, int], Dict[int, int]] = {}
        self.alive = True

    def holds_digest(self, digest: str) -> bool:
        return digest in self.pinned or digest in self.holds

    def model_use(
        self, digest: str, shipped: bool, capacity: int
    ) -> None:
        """Mirror the worker's cache update for one dispatched chunk."""
        if digest in self.pinned:
            return
        self.holds[digest] = True
        self.holds.move_to_end(digest)
        if shipped:
            while len(self.holds) > capacity:
                self.holds.popitem(last=False)

    def take_remaining(self) -> List[Tuple[int, int]]:
        """All unanswered (index, seed) pairs (worker-death recovery)."""
        lost = [
            (index, seed)
            for chunk in self.remaining.values()
            for index, seed in chunk.items()
        ]
        self.remaining.clear()
        return lost


@dataclass
class PoolRunStats:
    """What one :meth:`WorkerPool.run_guarded` call cost and reused."""

    jobs: int = 0
    tasks: int = 0
    chunks: int = 0
    chunk_size: int = 0
    unique_topologies: int = 0
    shipped_topologies: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    workers_spawned: int = 0
    workers_reused: int = 0
    #: True warm-up: seconds from spawning the slowest new worker to its
    #: ready handshake (0.0 when every worker was reused).
    spinup_seconds: float = 0.0
    #: 1-based index of this run in the pool's lifetime (reuse counter).
    pool_run: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "tasks": self.tasks,
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "unique_topologies": self.unique_topologies,
            "shipped_topologies": self.shipped_topologies,
            "topology_cache_hits": self.cache_hits,
            "topology_cache_misses": self.cache_misses,
            "topology_cache_hit_rate": round(self.cache_hit_rate, 4),
            "evictions": self.evictions,
            "workers_spawned": self.workers_spawned,
            "workers_reused": self.workers_reused,
            "spinup_seconds": round(self.spinup_seconds, 6),
            "pool_run": self.pool_run,
        }


class WorkerPool:
    """A persistent pool of warm trial workers with topology caches.

    One instance normally serves the whole process (see
    :func:`get_worker_pool`); tests construct private pools to control
    ``start_method`` and ``cache_capacity``.  Workers are spawned on
    demand (up to the largest ``jobs`` ever requested), survive across
    runs, and are reaped by :meth:`close` or at interpreter
    exit.
    """

    def __init__(
        self,
        start_method: Optional[str] = None,
        cache_capacity: Optional[int] = None,
    ) -> None:
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self.cache_capacity = (
            cache_capacity
            if cache_capacity is not None
            else DEFAULT_TOPOLOGY_CACHE
        )
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        self._workers: List[_WorkerHandle] = []
        self._run_counter = 0
        self.closed = False
        #: Lifetime counters (the bench reads deltas around each run).
        self.totals: Dict[str, float] = {
            "runs": 0,
            "tasks": 0,
            "chunks": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "evictions": 0,
            "shipped_topologies": 0,
            "workers_spawned": 0,
            "workers_reused": 0,
            "spinup_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workers_alive(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    def _spawn_worker(self, fork_topologies: Dict[str, Any]) -> _WorkerHandle:
        global _FORK_TOPOLOGIES
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        publish = fork_topologies if self.start_method == "fork" else {}
        _FORK_TOPOLOGIES = publish
        try:
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.cache_capacity),
                daemon=True,
                name="repro-pool-worker",
            )
            process.start()
        finally:
            # The forked child snapshotted the dict at start(); the
            # parent must not keep topologies alive beyond the run.
            _FORK_TOPOLOGIES = {}
        child_conn.close()
        # Under fork the inheritance is certain, so the parent can plan
        # around it before the ready handshake arrives; the handshake
        # corrects the model under spawn (where nothing is inherited).
        handle = _WorkerHandle(process, parent_conn, set(publish))
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
            self._spawn_worker({})
        deadline = time.monotonic() + timeout
        while True:
            waiting = [w for w in self._workers if w.alive and not w.ready]
            if not waiting:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for conn in _connection_wait(
                [w.conn for w in waiting], timeout=remaining
            ):
                worker = next(w for w in waiting if w.conn is conn)
                try:
                    self._bookkeep(worker, conn.recv(), None, None)
                except (EOFError, OSError):
                    worker.alive = False
                    worker.take_remaining()
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
        """Cumulative lifetime counters (copy; see also PoolRunStats)."""
        snapshot = dict(self.totals)
        snapshot["workers_alive"] = self.workers_alive
        return snapshot

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_guarded(
        self,
        tasks: Sequence[TrialTask],
        jobs: int,
        chunk_size: Optional[int] = None,
        stats: Optional[PoolRunStats] = None,
    ) -> Iterator[GuardedOutcome]:
        """Execute every task, yielding failures instead of raising.

        Outcomes stream in completion order as ``(index, result,
        payload, error)`` with exactly one entry per task — worker-side
        exceptions and worker deaths become error strings on the
        affected trials, never pool-wide aborts.  A consumer that stops
        iterating abandons the run: chunks already in worker pipes
        finish harmlessly and the next run drains their stale results.
        ``stats``, when given, is filled in with what this run cost and
        reused (complete once the stream is exhausted).
        """
        if stats is None:
            stats = PoolRunStats()
        for event in self._stream(tasks, jobs, chunk_size, stats):
            if event[0] == "done":
                index, result, payload = event[1]
                yield index, result, payload, None
            else:
                _, index, seed, cause = event
                yield index, None, None, (
                    f"{type(cause).__name__}: {cause}"
                    if isinstance(cause, BaseException)
                    else str(cause)
                )

    # -- scheduling internals -------------------------------------------
    def _auto_chunk_size(self, n_tasks: int, workers: int) -> int:
        # ~4 chunks per worker balances stragglers against per-message
        # overhead; tiny runs degrade to one trial per chunk.
        return max(1, math.ceil(n_tasks / (workers * 4)))

    def _select_workers(
        self, want: int, digests: Sequence[str]
    ) -> List[_WorkerHandle]:
        """Up to ``want`` alive workers, warmest-cache first."""
        alive = [w for w in self._workers if w.alive]
        wanted = set(digests)
        ranked = sorted(
            range(len(alive)),
            key=lambda i: (
                -sum(1 for d in wanted if alive[i].holds_digest(d)),
                i,
            ),
        )
        return [alive[i] for i in ranked[:want]]

    def _drain_stale(self) -> None:
        """Consume leftover messages from aborted runs (bookkeeping only)."""
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                while worker.conn.poll(0):
                    self._bookkeep(worker, worker.conn.recv(), None, None)
            except (EOFError, OSError):
                worker.alive = False

    def _bookkeep(
        self,
        worker: _WorkerHandle,
        message: Tuple[Any, ...],
        run_id: Optional[int],
        stats: Optional[PoolRunStats],
    ) -> Optional[Tuple[Any, ...]]:
        """Process one worker message; return an event for live results.

        Handshakes and chunk acknowledgements are folded into pool state
        whatever run they belong to (that is what lets an aborted run's
        stragglers settle); ``done``/``err`` messages are returned to the
        scheduler only when they belong to the current run.
        """
        kind = message[0]
        if kind == "ready":
            worker.ready = True
            worker.spinup_seconds = time.perf_counter() - worker.spawned_at
            worker.pinned = set(message[2])
            self.totals["spinup_seconds"] += worker.spinup_seconds
            return None
        if kind == "chunk_done":
            _, msg_run, chunk_id, chunk_stats = message
            worker.inflight = max(0, worker.inflight - 1)
            worker.remaining.pop((msg_run, chunk_id), None)
            self.totals["cache_hits"] += chunk_stats["cache_hits"]
            self.totals["cache_misses"] += chunk_stats["cache_misses"]
            self.totals["evictions"] += chunk_stats["evictions"]
            if stats is not None and msg_run == run_id:
                stats.cache_hits += chunk_stats["cache_hits"]
                stats.cache_misses += chunk_stats["cache_misses"]
                stats.evictions += chunk_stats["evictions"]
            return None
        if kind == "done":
            _, msg_run, outcome = message
            if msg_run != run_id:
                return None
            worker_remaining = worker.remaining
            for key in list(worker_remaining):
                if key[0] == msg_run:
                    worker_remaining[key].pop(outcome[0], None)
            return ("done", outcome)
        if kind == "err":
            _, msg_run, index, seed, cause = message
            if msg_run != run_id:
                return None
            for key in list(worker.remaining):
                if key[0] == msg_run:
                    worker.remaining[key].pop(index, None)
            return ("err", index, seed, cause)
        return None  # pragma: no cover - unknown message kind

    def _stream(
        self,
        tasks: Sequence[TrialTask],
        jobs: int,
        chunk_size: Optional[int],
        stats: PoolRunStats,
    ) -> Iterator[Tuple[Any, ...]]:
        """The scheduler: dispatch chunks with affinity, stream events.

        Yields exactly one ``("done", outcome)`` or ``("err", index,
        seed, cause)`` event per task.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._run_counter += 1
        run_id = self._run_counter
        self.totals["runs"] += 1
        self.totals["tasks"] += len(tasks)

        # Content digests, memoized per topology object within the run
        # (campaigns reuse one object per seed; sweeps rebuild per
        # fraction but identical content still shares a digest).
        digest_memo: Dict[int, str] = {}
        topology_by_digest: "OrderedDict[str, Any]" = OrderedDict()
        task_digests: List[str] = []
        with span("pool.digest", tasks=len(tasks)):
            for task in tasks:
                digest = digest_memo.get(id(task.topology))
                if digest is None:
                    digest = _topology_digest(task.topology)
                    digest_memo[id(task.topology)] = digest
                topology_by_digest.setdefault(digest, task.topology)
                task_digests.append(digest)

        want = max(1, min(jobs, len(tasks)))
        alive_before = self.workers_alive
        spawned_this_run: List[_WorkerHandle] = []
        while self.workers_alive < want:
            spawned_this_run.append(
                self._spawn_worker(dict(topology_by_digest))
            )
        workers = self._select_workers(want, list(topology_by_digest))
        for worker in workers:
            worker.runs_served += 1
        stats.jobs = want
        stats.tasks = len(tasks)
        stats.unique_topologies = len(topology_by_digest)
        stats.workers_spawned = max(0, want - alive_before)
        stats.workers_reused = min(want, alive_before)
        stats.pool_run = run_id
        self.totals["workers_reused"] += stats.workers_reused

        self._drain_stale()

        # Chunk the grid: group by digest (submission order preserved
        # within a group) so one message's trials share one topology.
        if chunk_size is None:
            chunk_size = self._auto_chunk_size(len(tasks), want)
        stats.chunk_size = chunk_size
        groups: "OrderedDict[str, List[TrialTask]]" = OrderedDict()
        for task, digest in zip(tasks, task_digests):
            groups.setdefault(digest, []).append(task)
        pending: deque = deque()
        chunk_id = 0
        for digest, members in groups.items():
            for i in range(0, len(members), chunk_size):
                pending.append((chunk_id, digest, members[i : i + chunk_size]))
                chunk_id += 1
        stats.chunks = chunk_id
        self.totals["chunks"] += chunk_id

        def dispatch() -> None:
            """Send queued chunks to free workers, warm caches first."""
            while pending:
                free = [
                    w
                    for w in workers
                    if w.alive and w.inflight < _MAX_INFLIGHT_CHUNKS
                ]
                if not free:
                    return
                free.sort(key=lambda w: w.inflight)
                sent = False
                for worker in free:
                    chosen = None
                    for i, chunk in enumerate(pending):
                        if worker.holds_digest(chunk[1]):
                            chosen = i
                            break
                    if chosen is None:
                        # No warm chunk for this worker: only take the
                        # head chunk if no *other* free worker is warm
                        # for it (it will claim it in its own turn).
                        head = pending[0]
                        if any(
                            w is not worker and w.holds_digest(head[1])
                            for w in free
                        ):
                            continue
                        chosen = 0
                    cid, digest, members = pending[chosen]
                    del pending[chosen]
                    shipped: Dict[str, Any] = {}
                    if not worker.holds_digest(digest):
                        shipped[digest] = topology_by_digest[digest]
                        stats.shipped_topologies += 1
                        self.totals["shipped_topologies"] += 1
                    worker.model_use(
                        digest, bool(shipped), self.cache_capacity
                    )
                    wire_tasks = [
                        _WireTask(
                            index=t.index,
                            spec=t.spec,
                            seed=t.seed,
                            obs_config=t.obs_config,
                            digest=digest,
                        )
                        for t in members
                    ]
                    with span(
                        "pool.submit", chunk=cid, trials=len(members)
                    ):
                        try:
                            worker.conn.send(
                                ("chunk", run_id, cid, wire_tasks, shipped)
                            )
                        except (OSError, ValueError):
                            worker.alive = False
                            pending.appendleft((cid, digest, members))
                            break
                    worker.inflight += 1
                    worker.remaining[(run_id, cid)] = {
                        t.index: t.seed for t in members
                    }
                    sent = True
                    break
                if not sent:
                    return

        emitted = 0
        total = len(tasks)
        dispatch()
        while emitted < total:
            watched = [
                w
                for w in self._workers
                if w.alive and (w.inflight > 0 or not w.ready)
            ]
            if not watched:
                if pending and not self.closed:
                    # Every worker died with chunks still queued: spawn
                    # a replacement and keep going (campaign retries
                    # decide whether the failure was environmental).
                    replacement = self._spawn_worker(
                        dict(topology_by_digest)
                    )
                    workers.append(replacement)
                    spawned_this_run.append(replacement)
                    stats.workers_spawned += 1
                    dispatch()
                    continue
                # Nothing running and nothing to dispatch: the missing
                # outcomes are unrecoverable.
                for cid, digest, members in list(pending):
                    for t in members:
                        emitted += 1
                        yield (
                            "err",
                            t.index,
                            t.seed,
                            RuntimeError("worker pool lost the trial"),
                        )
                pending.clear()
                if emitted < total:
                    return
                break
            ready_conns = _connection_wait([w.conn for w in watched])
            by_conn = {w.conn: w for w in watched}
            for conn in ready_conns:
                worker = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    worker.alive = False
                    lost = worker.take_remaining()
                    dead = RuntimeError(
                        f"worker process died "
                        f"(pid {worker.process.pid}, exit "
                        f"{worker.process.exitcode})"
                    )
                    for index, seed in lost:
                        emitted += 1
                        yield ("err", index, seed, dead)
                    dispatch()
                    continue
                event = self._bookkeep(worker, message, run_id, stats)
                dispatch()
                if event is not None:
                    emitted += 1
                    yield event
        # Every outcome is out, but the trailing chunk_done
        # acknowledgements (sent right after each chunk's last result)
        # may still sit in the pipes; settle them so this run's cache
        # stats are complete and inflight bookkeeping is exact.  Bounded
        # wait: a worker still crunching an *aborted* earlier run must
        # not stall this one.
        settle_deadline = time.monotonic() + 2.0
        while time.monotonic() < settle_deadline:
            owing = [
                w
                for w in self._workers
                if w.alive
                and any(key[0] == run_id for key in w.remaining)
            ]
            if not owing:
                break
            for conn in _connection_wait(
                [w.conn for w in owing], timeout=0.05
            ):
                worker = next(w for w in owing if w.conn is conn)
                try:
                    self._bookkeep(worker, conn.recv(), run_id, stats)
                except (EOFError, OSError):
                    worker.alive = False
                    worker.take_remaining()
        # True warm-up cost of this run: spawn-to-ready of the slowest
        # worker it had to boot (0.0 when the whole pool was warm).
        stats.spinup_seconds = max(
            (
                w.spinup_seconds
                for w in spawned_this_run
                if w.spinup_seconds is not None
            ),
            default=0.0,
        )

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
        return {
            "runs": 0,
            "tasks": 0,
            "chunks": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "evictions": 0,
            "shipped_topologies": 0,
            "workers_spawned": 0,
            "workers_reused": 0,
            "spinup_seconds": 0.0,
            "workers_alive": 0,
        }
    return _POOL.stats_snapshot()
