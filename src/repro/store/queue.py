"""The durable work queue: cold trials as leasable rows in the store.

The campaign service (:mod:`repro.service`) separates *asking* for a
trial from *computing* it: a submission that misses the cache enqueues
one row per cold trial here, and any number of executor processes drain
the rows against the same SQLite file.  The queue therefore lives in the
store database itself — a task and its eventual result commit through
the same WAL, so "the trial is banked" and "the task is done" can never
disagree after a crash.

Lease protocol
--------------
A task moves ``pending -> running -> done`` (or ``failed``).  Claiming
is a short ``BEGIN IMMEDIATE`` transaction — select runnable rows, stamp
them ``running`` with a lease deadline — so two executors draining the
same file can never claim the same task while a lease is valid.  A
*runnable* row is ``pending``, or ``running`` with an **expired**
lease: a crashed executor's tasks become claimable again the moment
its lease lapses, with no janitor process.  Long-running executors
extend their leases via :meth:`QueueOps.heartbeat_tasks` as results
stream in.

An executor retries a failing trial inside its batch
(:data:`repro.core.batch.MAX_ATTEMPTS`) and parks what exhausts the
budget as ``failed``, adding the executions spent to ``attempts``;
re-submitting a key whose task is ``failed`` revives it.  The partial
unique index on open tasks guarantees at most one pending/running row
per trial key, so duplicate submissions deduplicate instead of
duplicating compute.

All methods run through the owning store's locked, retrying write
helpers (see :class:`repro.store.result_store.ResultStore`), which is
what makes the multi-process / multi-thread access safe.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Every state a queue task can be in, in lifecycle order.
QUEUE_STATES = ("pending", "running", "done", "failed")

#: Queue + ticket tables, created alongside the trial tables (additive:
#: stores from earlier schema revisions gain them on next open).
# The old backoff-gate column is unread; it stays so existing stores match.
QUEUE_SCHEMA = """
CREATE TABLE IF NOT EXISTS queue (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    key           TEXT NOT NULL,
    payload       TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    not_before    REAL NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    error         TEXT,
    ticket        TEXT,
    created_utc   TEXT NOT NULL,
    updated_utc   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS queue_runnable
    ON queue (state, not_before);
CREATE INDEX IF NOT EXISTS queue_key
    ON queue (key);
CREATE UNIQUE INDEX IF NOT EXISTS queue_open_key
    ON queue (key) WHERE state IN ('pending', 'running');
CREATE TABLE IF NOT EXISTS tickets (
    ticket      TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    created_utc TEXT NOT NULL,
    keys        TEXT NOT NULL,
    campaign    TEXT
);
"""

_TASK_COLUMNS = (
    "id, key, payload, state, attempts, lease_owner, "
    "lease_expires, error, ticket, created_utc, updated_utc"
)


@dataclass(frozen=True)
class QueueTask:
    """One queued trial: content key plus the declarative recipe to run it.

    ``payload`` carries everything an executor on any host needs:
    ``{"topology": <parameter block>, "scheme": <explicit spec dict>,
    "seed": N}`` — the executor rebuilds the topology and spec and
    verifies the recomputed content hash equals ``key`` before running.
    """

    id: int
    key: str
    payload: Dict[str, Any]
    state: str
    attempts: int
    lease_owner: Optional[str]
    lease_expires: Optional[float]
    error: Optional[str]
    ticket: Optional[str]
    created_utc: str
    updated_utc: str


def _task_from_row(row: Sequence[Any]) -> QueueTask:
    return QueueTask(
        id=int(row[0]),
        key=row[1],
        payload=json.loads(row[2]),
        state=row[3],
        attempts=int(row[4]),
        lease_owner=row[5],
        lease_expires=float(row[6]) if row[6] is not None else None,
        error=row[7],
        ticket=row[8],
        created_utc=row[9],
        updated_utc=row[10],
    )


class QueueOps:
    """Work-queue and ticket operations, mixed into ``ResultStore``.

    Relies on the host class for ``_read`` / ``_write`` (locked,
    retry-on-locked database access) and ``_now`` timestamps; contains
    every piece of queue SQL so callers above the store (the service
    API, the executor) never touch SQL directly.
    """

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    def enqueue(
        self,
        key: str,
        payload: Dict[str, Any],
        ticket: Optional[str] = None,
    ) -> Tuple[int, bool]:
        """Schedule one cold trial; returns ``(task_id, created)``.

        Deduplicating: an open (pending/running) task for the same key
        is returned as ``(existing_id, False)`` instead of inserting a
        duplicate.  A ``failed`` task for the key is *revived* — reset
        to pending with a fresh attempt budget — and counts as created.
        """
        now_utc = self._now_utc()
        encoded = json.dumps(payload, sort_keys=True)

        def op(conn):
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT id, state FROM queue WHERE key=? AND state IN "
                "('pending', 'running', 'failed') ORDER BY id DESC LIMIT 1",
                (key,),
            ).fetchone()
            if row is not None and row[1] in ("pending", "running"):
                return int(row[0]), False
            if row is not None:  # failed -> revive
                conn.execute(
                    "UPDATE queue SET state='pending', attempts=0, "
                    "error=NULL, lease_owner=NULL, "
                    "lease_expires=NULL, ticket=?, payload=?, "
                    "updated_utc=? WHERE id=?",
                    (ticket, encoded, now_utc, row[0]),
                )
                return int(row[0]), True
            cursor = conn.execute(
                "INSERT INTO queue (key, payload, state, ticket, "
                "created_utc, updated_utc) VALUES (?, ?, 'pending', ?, ?, ?)",
                (key, encoded, ticket, now_utc, now_utc),
            )
            return int(cursor.lastrowid), True

        return self._write(op)

    # ------------------------------------------------------------------
    # Executor side
    # ------------------------------------------------------------------
    def lease_tasks(
        self,
        owner: str,
        limit: int,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> List[QueueTask]:
        """Atomically claim up to ``limit`` runnable tasks for ``owner``.

        Runnable = pending, or running with an expired lease (a crashed
        executor's tasks).  Claimed rows are stamped ``running`` with
        ``lease_expires = now + lease_seconds`` inside one immediate
        transaction, so concurrent executors never receive overlapping
        sets.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        now = time.time() if now is None else now
        now_utc = self._now_utc()

        def op(conn):
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                "SELECT id FROM queue WHERE "
                "state='pending' OR "
                "(state='running' AND lease_expires IS NOT NULL "
                " AND lease_expires<=?) "
                "ORDER BY id LIMIT ?",
                (now, limit),
            ).fetchall()
            ids = [int(r[0]) for r in rows]
            if not ids:
                return []
            marks = ",".join("?" for _ in ids)
            conn.execute(
                f"UPDATE queue SET state='running', lease_owner=?, "
                f"lease_expires=?, updated_utc=? WHERE id IN ({marks})",
                [owner, now + lease_seconds, now_utc, *ids],
            )
            fetched = conn.execute(
                f"SELECT {_TASK_COLUMNS} FROM queue WHERE id IN ({marks}) "
                f"ORDER BY id",
                ids,
            ).fetchall()
            return [_task_from_row(r) for r in fetched]

        return self._write(op)

    def heartbeat_tasks(
        self,
        owner: str,
        task_ids: Iterable[int],
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> int:
        """Extend the lease on still-running tasks owned by ``owner``.

        Returns how many leases were actually extended — a task whose
        lease was stolen after expiry (different owner now) is not
        touched, which is how a slow executor learns it lost the task.
        """
        ids = [int(i) for i in task_ids]
        if not ids:
            return 0
        now = time.time() if now is None else now

        def op(conn):
            marks = ",".join("?" for _ in ids)
            cursor = conn.execute(
                f"UPDATE queue SET lease_expires=?, updated_utc=? "
                f"WHERE id IN ({marks}) AND lease_owner=? "
                f"AND state='running'",
                [now + lease_seconds, self._now_utc(), *ids, owner],
            )
            return cursor.rowcount

        return self._write(op)

    def complete_task(self, task_id: int) -> None:
        """Mark one task done (the trial result is already in the store)."""

        def op(conn):
            conn.execute(
                "UPDATE queue SET state='done', lease_owner=NULL, "
                "lease_expires=NULL, error=NULL, updated_utc=? WHERE id=?",
                (self._now_utc(), task_id),
            )

        self._write(op)

    def fail_task(self, task_id: int, error: str, attempts: int = 1) -> None:
        """Park one task as ``failed`` after ``attempts`` executions.

        The attempt counter grows by ``attempts`` and the last error is
        kept for operators; re-submission revives the task.
        """

        def op(conn):
            conn.execute(
                "UPDATE queue SET state='failed', attempts=attempts+?, "
                "error=?, lease_owner=NULL, lease_expires=NULL, "
                "updated_utc=? WHERE id=?",
                (attempts, error, self._now_utc(), task_id),
            )

        self._write(op)

    def release_tasks(
        self, owner: str, task_ids: Optional[Iterable[int]] = None
    ) -> int:
        """Return ``owner``'s running tasks to pending (graceful drain).

        Called on shutdown for leased-but-unexecuted tasks so another
        executor (or the next boot) picks them up immediately instead of
        waiting out the lease.  Returns the number released.
        """
        ids = None if task_ids is None else [int(i) for i in task_ids]

        def op(conn):
            sql = (
                "UPDATE queue SET state='pending', lease_owner=NULL, "
                "lease_expires=NULL, updated_utc=? "
                "WHERE lease_owner=? AND state='running'"
            )
            params: List[Any] = [self._now_utc(), owner]
            if ids is not None:
                if not ids:
                    return 0
                sql += f" AND id IN ({','.join('?' for _ in ids)})"
                params.extend(ids)
            return conn.execute(sql, params).rowcount

        return self._write(op)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def queue_counts(self) -> Dict[str, int]:
        """Tasks per state, zero-filled over :data:`QUEUE_STATES`."""

        def op(conn):
            rows = conn.execute(
                "SELECT state, COUNT(*) FROM queue GROUP BY state"
            ).fetchall()
            counts = {state: 0 for state in QUEUE_STATES}
            for state, count in rows:
                counts[state] = int(count)
            return counts

        return self._read(op)

    def queue_entries(
        self, state: Optional[str] = None, limit: Optional[int] = None
    ) -> List[QueueTask]:
        """Queue rows (optionally one state), oldest first."""

        def op(conn):
            sql = f"SELECT {_TASK_COLUMNS} FROM queue"
            params: List[Any] = []
            if state is not None:
                sql += " WHERE state=?"
                params.append(state)
            sql += " ORDER BY id"
            if limit is not None:
                sql += " LIMIT ?"
                params.append(int(limit))
            return [_task_from_row(r) for r in conn.execute(sql, params)]

        return self._read(op)

    def queue_states_for(
        self, keys: Sequence[str]
    ) -> Dict[str, Dict[str, Any]]:
        """Latest queue row per key: ``{key: {state, attempts, error}}``.

        Keys with no queue row are absent from the result (a ticket key
        can be store-served without ever having been queued).
        """
        out: Dict[str, Dict[str, Any]] = {}
        keys = list(keys)

        def op(conn):
            for start in range(0, len(keys), 400):
                chunk = keys[start : start + 400]
                marks = ",".join("?" for _ in chunk)
                rows = conn.execute(
                    f"SELECT key, state, attempts, error FROM queue "
                    f"WHERE key IN ({marks}) ORDER BY id",
                    chunk,
                ).fetchall()
                for key, task_state, attempts, error in rows:
                    out[key] = {
                        "state": task_state,
                        "attempts": int(attempts),
                        "error": error,
                    }
            return out

        return self._read(op)

    # ------------------------------------------------------------------
    # Tickets
    # ------------------------------------------------------------------
    def record_ticket(
        self,
        ticket: str,
        name: str,
        keys: Sequence[str],
        campaign: Dict[str, Any],
    ) -> None:
        """Persist one submission: ticket -> ordered trial keys.

        ``campaign`` (the normalized campaign document) makes the ticket
        self-describing, so results can be folded server-side after a
        daemon restart without the client re-sending the grid.
        """

        def op(conn):
            conn.execute(
                "INSERT OR REPLACE INTO tickets "
                "(ticket, name, created_utc, keys, campaign) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    ticket,
                    name,
                    self._now_utc(),
                    json.dumps(list(keys)),
                    json.dumps(campaign, sort_keys=True),
                ),
            )

        self._write(op)

    def ticket_info(self, ticket: str) -> Optional[Dict[str, Any]]:
        """One recorded ticket (name, creation time, keys, campaign)."""

        def op(conn):
            row = conn.execute(
                "SELECT ticket, name, created_utc, keys, campaign "
                "FROM tickets WHERE ticket=?",
                (ticket,),
            ).fetchone()
            if row is None:
                return None
            return {
                "ticket": row[0],
                "name": row[1],
                "created_utc": row[2],
                "keys": json.loads(row[3]),
                "campaign": json.loads(row[4]) if row[4] else None,
            }

        return self._read(op)
