"""The drain loop: leased queue tasks -> warm pool -> banked results.

One :class:`QueueExecutor` repeatedly leases a batch of cold trials from
the backend, rebuilds each trial from its declarative payload (topology
parameter block + explicit spec dict + seed) and hands the batch to
:func:`repro.core.batch.run_batch` — the same function ``run_campaign``
runs — with the backend as its store and the queue bookkeeping in its
per-outcome hook.  So the batch runs on the
process-wide warm :class:`~repro.core.parallel.WorkerPool` (same-topology
trials ride one chunk, which carries their topology), every result is
banked from this process the moment it streams back, and folding banked
trials produces output bit-identical to
:func:`repro.store.campaign.run_campaign`.

Any number of executor processes may drain one store: the lease
transaction hands each task to exactly one of them, heartbeats keep
long batches owned, and a crashed executor's leases expire so its tasks
re-dispatch (see :mod:`repro.store.queue`).

Before running, each task's content hash is recomputed from the
rebuilt (topology, spec, seed) — each rebuilt topology digested once
per batch, like a planned grid's — and compared to its queue key; a
mismatch — wrong code version, corrupted payload — fails the task
permanently rather than banking a result under a key it doesn't match.
A failing trial is retried inside its batch, like a campaign's, up to
:data:`~repro.core.batch.MAX_ATTEMPTS` executions; the outcome that
exhausts them parks its task as ``failed`` at once, so a graceful stop
never hands a final failure back.  The executor counts what it settles
in one :class:`~repro.core.batch.Tally`, as a campaign's batch does.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.batch import (
    BatchOutcome,
    PlannedTrial,
    Tally,
    build_topology,
    run_batch,
)
from repro.specs.serialize import build_spec
from repro.specs.topology import topology_factory
from repro.store.hashing import trial_key
from repro.store.queue import QueueTask
from repro.store.result_store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.daemon import ServiceConfig


def default_owner() -> str:
    """A lease-owner id unique per executor process."""
    return (
        f"{socket.gethostname()}:{os.getpid()}:{os.urandom(3).hex()}"
    )


class _DrainStopped(Exception):
    """Raised out of the batch by the outcome hook on a graceful stop."""


class QueueExecutor:
    """Drains the durable queue through the warm worker pool.

    It reads ``jobs``, ``batch_size``, ``lease_seconds`` and
    ``poll_interval`` from the daemon's ``config``
    (:class:`~repro.service.daemon.ServiceConfig`) and leases as
    :attr:`owner`, a fresh :func:`default_owner`.  Its trials run
    unobserved; its lifetime :attr:`tally` is what the service's ETA
    extrapolates from.
    """

    def __init__(self, backend: ResultStore, config: "ServiceConfig") -> None:
        self.backend = backend
        self.config = config
        self.owner = default_owner()
        #: Every outcome settled in this executor's lifetime, folded;
        #: a task that fails to materialize counts as failed for good.
        self.tally = Tally()
        self.batches = 0

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _materialize(
        self,
        task: QueueTask,
        topo_cache: Dict[Tuple[str, int], Tuple[Any, str]],
    ) -> PlannedTrial:
        """Rebuild the trial a queue payload describes.

        Raises ``ValueError`` when the recomputed content hash differs
        from the queued key — a failure no retry can mend, so the task
        parks without running.
        """
        payload = task.payload
        block = payload["topology"]
        seed = int(payload["seed"])
        cache_key = (json.dumps(block, sort_keys=True), seed)
        built = topo_cache.get(cache_key)
        if built is None:
            built = topo_cache[cache_key] = build_topology(
                topology_factory(block), seed
            )
        topology, digest = built
        spec = build_spec(payload["scheme"], topology=topology)
        key = trial_key(spec, digest, seed)
        if key != task.key:
            raise ValueError(
                f"payload rebuilds to hash {key[:12]}..., queued as "
                f"{task.key[:12]}... (code/schema drift?)"
            )
        return PlannedTrial(topology, spec, seed, digest, key)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain_once(
        self, stop: Optional[threading.Event] = None
    ) -> int:
        """Lease and process one batch; returns how many tasks it took.

        Zero means the queue had nothing runnable.  Results are banked
        (and tasks completed) one by one as they stream back, so a crash
        mid-batch loses only in-flight trials — and even those only
        until the lease expires.  A task parks as ``failed`` on the
        outcome that spends its last attempt.  When ``stop`` is set the
        batch ends after the outcome being settled and the unfinished
        tasks — a trial between attempts included — go straight back to
        pending.
        """
        cfg = self.config
        batch = self.backend.lease_tasks(
            self.owner, cfg.batch_size, cfg.lease_seconds
        )
        if not batch:
            return 0
        self.batches += 1
        topo_cache: Dict[Tuple[str, int], Tuple[Any, str]] = {}
        leased: List[QueueTask] = []
        planned: List[PlannedTrial] = []
        for task in batch:
            try:
                planned.append(self._materialize(task, topo_cache))
            except Exception as exc:  # noqa: BLE001 - permanent failure
                self.backend.fail_task(
                    task.id, f"materialize: {type(exc).__name__}: {exc}"
                )
                self.tally.failed_terminal += 1
            else:
                leased.append(task)
        if not planned:
            return len(batch)

        outstanding = {task.id for task in leased}
        last_beat = time.monotonic()
        beat_every = max(1.0, cfg.lease_seconds / 3.0)

        def settle(outcome: BatchOutcome) -> None:
            nonlocal last_beat
            self.tally(outcome)
            task_id = leased[outcome.index].id
            if outcome.error is None:
                # The trial was banked before this hook ran; the queue
                # row flips second, so a crash between the two leaves a
                # banked trial behind a live lease — the next claimant's
                # lookup finds it and only completes the row.
                self.backend.complete_task(task_id)
                outstanding.discard(task_id)
            elif outcome.final:
                self.backend.fail_task(
                    task_id, outcome.error, attempts=outcome.attempt
                )
                outstanding.discard(task_id)
            if not outstanding:
                return
            if stop is not None and stop.is_set():
                raise _DrainStopped
            now = time.monotonic()
            if now - last_beat >= beat_every:
                self.backend.heartbeat_tasks(
                    self.owner, outstanding, cfg.lease_seconds
                )
                last_beat = now

        try:
            run_batch(
                planned, jobs=cfg.jobs, store=self.backend, on_outcome=settle
            )
        except _DrainStopped:
            # Graceful drain: hand unfinished tasks straight back
            # instead of making the next claimant wait out our lease.
            released = self.backend.release_tasks(self.owner, outstanding)
            return len(batch) - released
        return len(batch)

    def drain(
        self,
        stop: Optional[threading.Event] = None,
        idle_timeout: Optional[float] = None,
    ) -> None:
        """Poll/drain until ``stop`` is set (or the queue stays empty
        for ``idle_timeout`` seconds, when one is given)."""
        idle_since: Optional[float] = None
        while stop is None or not stop.is_set():
            took = self.drain_once(stop=stop)
            if took:
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif (
                idle_timeout is not None
                and now - idle_since >= idle_timeout
            ):
                return
            if stop is not None:
                stop.wait(self.config.poll_interval)
            else:
                time.sleep(self.config.poll_interval)

    # ------------------------------------------------------------------
    def telemetry(self) -> Dict[str, Any]:
        """Lifetime drain counters for ``/health`` and ``queue status``."""
        return {
            "owner": self.owner,
            "jobs": self.config.jobs,
            "executed": self.tally.executed,
            "failed_attempts": self.tally.failed_attempts,
            "failed_terminal": self.tally.failed_terminal,
            "retried": self.tally.retried,
            "busy_seconds": round(self.tally.busy_seconds, 3),
            "batches": self.batches,
        }
