"""The persistent trial store: SQLite-backed, content-addressed, WAL mode.

One row per trial, keyed by :func:`repro.store.hashing.spec_hash`.  The
row carries the full :class:`~repro.core.experiment.TrialResult` payload
plus provenance — which campaign/run wrote it, at which git revision,
when, and how much wall clock the simulation cost (so a store can report
how much compute it has banked).  A second table records one manifest
row per campaign run, giving ``repro-bgp campaign status`` its history.
The queue/ticket tables that turn a store into a campaign-service
backend live in :mod:`repro.store.queue` and are mixed in here.

Concurrency contract: **any number of processes and threads may share
one store file**.  Simulation workers still never touch SQLite — they
return results over the pool pipe exactly as in
:mod:`repro.core.parallel` and their parent banks them — but several
such parents (the service daemon, extra executor drainers, a CLI
``campaign run``) may write the same file concurrently.  Three layers
make that safe:

* WAL mode, so readers never block the writer;
* ``PRAGMA busy_timeout`` on every connection, so a write that meets a
  competing write lock waits instead of failing instantly;
* every database access goes through :meth:`ResultStore._read` /
  :meth:`ResultStore._write`, which serialize threads within one handle
  (the HTTP API threads and the executor thread share a handle) and
  retry the whole operation on ``database is locked`` — the one case
  ``busy_timeout`` cannot cover, an immediate SQLITE_BUSY when a read
  transaction tries to upgrade to a write lock.

Each ``put`` stays durable on its own commit, which is what makes a
Ctrl-C'd sweep resumable — every finished trial is already on disk.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import fields as dataclass_fields
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.obs.spans import span
from repro.store.hashing import SCHEMA_VERSION
from repro.store.queue import QUEUE_SCHEMA, QueueOps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import sqlite3

    from repro.core.experiment import TrialResult

T = TypeVar("T")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    key            TEXT PRIMARY KEY,
    seed           INTEGER NOT NULL,
    result         TEXT NOT NULL,
    fingerprint    TEXT,
    run_id         TEXT NOT NULL,
    git_rev        TEXT,
    schema_version INTEGER NOT NULL,
    created_utc    TEXT NOT NULL,
    wall_seconds   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    run_id      TEXT NOT NULL,
    git_rev     TEXT,
    created_utc TEXT NOT NULL,
    manifest    TEXT NOT NULL
);
"""

_GIT_REV: Optional[str] = None
_GIT_REV_PROBED = False

#: How many times a locked write is retried before the error propagates.
#: With busy_timeout already waiting out held locks, retries only fire on
#: immediate-BUSY deadlock avoidance, so a handful suffice.
_LOCK_RETRIES = 6
_LOCK_BACKOFF = 0.05  # seconds, doubled per retry
#: sqlite3's own wait for a lock, and SQLite's busy handler on top of it.
_CONNECT_TIMEOUT = 30.0  # seconds
_BUSY_TIMEOUT_MS = 10_000


def git_revision() -> Optional[str]:
    """The current git revision (best effort, cached; None outside a repo)."""
    global _GIT_REV, _GIT_REV_PROBED
    if _GIT_REV_PROBED:
        return _GIT_REV
    _GIT_REV_PROBED = True
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if proc.returncode == 0:
            _GIT_REV = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        _GIT_REV = None
    return _GIT_REV


def trial_to_dict(trial: "TrialResult") -> Dict[str, Any]:
    """The trial's full measurement payload as plain JSON types."""
    return {
        f.name: getattr(trial, f.name) for f in dataclass_fields(trial)
    }


def trial_from_dict(data: Dict[str, Any]) -> "TrialResult":
    """Rebuild a TrialResult, ignoring unknown keys (forward compat)."""
    from repro.core.experiment import TrialResult

    known = {f.name for f in dataclass_fields(TrialResult)}
    return TrialResult(**{k: v for k, v in data.items() if k in known})


def _is_locked_error(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "database is locked" in message or "database is busy" in message


class ResultStore(QueueOps):
    """Trial-level result cache with provenance, on one SQLite file.

    >>> with ResultStore("results/store.db") as store:
    ...     if not store.has(key):
    ...         store.put(key, trial)

    ``hits`` / ``misses`` count this object's :meth:`get` outcomes, so a
    driver can report the cache rate of the run it just performed
    (:meth:`has` and iteration never touch the counters).

    One handle may be shared between threads (the service daemon shares
    one between its HTTP handler threads and its executor loop); an
    internal lock funnels all access, and locked-database errors from
    *other processes'* writes are waited out and retried — see the
    module docstring for the full concurrency contract.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # sqlite3 (and subprocess, in git_revision) load on first use: a
        # run without a store imports neither.
        import sqlite3

        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=_CONNECT_TIMEOUT, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._write(
            lambda conn: conn.executescript(_SCHEMA + QUEUE_SCHEMA)
        )
        self._check_schema()
        #: Identifies everything written by this store handle.
        self.run_id = os.urandom(16).hex()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Locked, retrying access helpers — ALL database access funnels
    # through these two.  ``fn`` receives the connection and may run any
    # number of statements; ``_write`` commits on success and rolls back
    # (then retries, for lock contention) on failure, so multi-statement
    # operations like queue leases stay atomic.
    # ------------------------------------------------------------------
    def _read(self, fn: Callable[[sqlite3.Connection], T]) -> T:
        with self._lock:
            return fn(self._conn)

    def _write(self, fn: Callable[[sqlite3.Connection], T]) -> T:
        import sqlite3

        with self._lock:
            delay = _LOCK_BACKOFF
            for attempt in range(_LOCK_RETRIES):
                try:
                    result = fn(self._conn)
                    self._conn.commit()
                    return result
                except sqlite3.OperationalError as exc:
                    self._conn.rollback()
                    if (
                        not _is_locked_error(exc)
                        or attempt == _LOCK_RETRIES - 1
                    ):
                        raise
                    time.sleep(delay)
                    delay *= 2
                except BaseException:
                    self._conn.rollback()
                    raise
            raise AssertionError("unreachable")  # pragma: no cover

    def _now_utc(self) -> str:
        return _now()

    def _check_schema(self) -> None:
        def op(conn: sqlite3.Connection) -> Optional[str]:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("created_utc", _now()),
                )
                row = conn.execute(
                    "SELECT value FROM meta WHERE key='schema_version'"
                ).fetchone()
            return row[0] if row else None

        stored = self._write(op)
        if stored is not None and int(stored) != SCHEMA_VERSION:
            raise ValueError(
                f"{self.path}: store schema version {stored} does not match "
                f"this code's version {SCHEMA_VERSION}; use a fresh store "
                f"(cached results would be invalid)"
            )

    # ------------------------------------------------------------------
    # Trial rows
    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        return (
            self._read(
                lambda conn: conn.execute(
                    "SELECT 1 FROM trials WHERE key=?", (key,)
                ).fetchone()
            )
            is not None
        )

    def get(
        self, key: str, *, dataplane: bool = False
    ) -> Optional["TrialResult"]:
        """The cached trial for ``key``, or None (counted hit/miss).

        ``dataplane=True`` asks for a trial that carries a data-plane
        summary; a row banked by an unmonitored run is a miss for it.
        """
        with span("store.get") as s:
            row = self._read(
                lambda conn: conn.execute(
                    "SELECT result FROM trials WHERE key=?", (key,)
                ).fetchone()
            )
            trial = trial_from_dict(json.loads(row[0])) if row else None
            if trial is not None and dataplane and trial.dataplane is None:
                trial = None
            if trial is None:
                self.misses += 1
            else:
                self.hits += 1
            s.set(hit=trial is not None)
            return trial

    def put(
        self,
        key: str,
        trial: "TrialResult",
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store (or overwrite) one trial; committed immediately.

        Must only be called from a pool *parent* — simulation workers
        never write, which keeps fold order deterministic.
        """
        with span("store.put"):
            self._put(key, trial, fingerprint)

    def _put(
        self,
        key: str,
        trial: "TrialResult",
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> None:
        # Probed before _write: the first probe runs `git`, and the
        # handle's lock must not be held while it does.
        git_rev = git_revision()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO trials "
                "(key, seed, result, fingerprint, run_id, git_rev, "
                " schema_version, created_utc, wall_seconds) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    trial.seed,
                    json.dumps(trial_to_dict(trial), sort_keys=True),
                    (
                        json.dumps(fingerprint, sort_keys=True)
                        if fingerprint is not None
                        else None
                    ),
                    self.run_id,
                    git_rev,
                    SCHEMA_VERSION,
                    _now(),
                    trial.warmup_wall + trial.convergence_wall,
                ),
            )

        self._write(op)

    def provenance(self, key: str) -> Optional[Dict[str, Any]]:
        """Who wrote a trial, when, at which revision (None if absent)."""
        row = self._read(
            lambda conn: conn.execute(
                "SELECT seed, run_id, git_rev, schema_version, created_utc, "
                "wall_seconds, fingerprint FROM trials WHERE key=?",
                (key,),
            ).fetchone()
        )
        if row is None:
            return None
        return {
            "seed": row[0],
            "run_id": row[1],
            "git_rev": row[2],
            "schema_version": row[3],
            "created_utc": row[4],
            "wall_seconds": row[5],
            "fingerprint": json.loads(row[6]) if row[6] else None,
        }

    def iter_trials(self) -> Iterator[Tuple[str, "TrialResult"]]:
        """Every stored (key, trial), in key order."""
        rows = self._read(
            lambda conn: conn.execute(
                "SELECT key, result FROM trials ORDER BY key"
            ).fetchall()
        )
        for key, payload in rows:
            yield key, trial_from_dict(json.loads(payload))

    def __len__(self) -> int:
        return int(
            self._read(
                lambda conn: conn.execute(
                    "SELECT COUNT(*) FROM trials"
                ).fetchone()[0]
            )
        )

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def stats(self) -> Dict[str, Any]:
        """Operator-facing snapshot: sizes, banked compute, queue depth.

        Everything ``repro-bgp store stats`` and the service ``/health``
        endpoint report, in one read.
        """

        def op(conn: sqlite3.Connection) -> Dict[str, Any]:
            trials = int(
                conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0]
            )
            banked = float(
                conn.execute(
                    "SELECT COALESCE(SUM(wall_seconds), 0) FROM trials"
                ).fetchone()[0]
            )
            campaigns = int(
                conn.execute("SELECT COUNT(*) FROM campaigns").fetchone()[0]
            )
            tickets = int(
                conn.execute("SELECT COUNT(*) FROM tickets").fetchone()[0]
            )
            queue = {
                state: 0
                for state in ("pending", "running", "done", "failed")
            }
            for state, count in conn.execute(
                "SELECT state, COUNT(*) FROM queue GROUP BY state"
            ):
                queue[state] = int(count)
            return {
                "trials": trials,
                "banked_wall_seconds": banked,
                "campaigns": campaigns,
                "tickets": tickets,
                "queue": queue,
            }

        stats = self._read(op)
        stats["path"] = str(self.path)
        stats["schema_version"] = SCHEMA_VERSION
        try:
            size = self.path.stat().st_size
            for suffix in ("-wal", "-shm"):
                sidecar = self.path.with_name(self.path.name + suffix)
                if sidecar.exists():
                    size += sidecar.stat().st_size
        except OSError:
            size = 0
        stats["db_bytes"] = size
        return stats

    # ------------------------------------------------------------------
    # Campaign manifests
    # ------------------------------------------------------------------
    def record_campaign(self, name: str, manifest: Dict[str, Any]) -> int:
        """Append one campaign-run manifest row; returns its id."""
        git_rev = git_revision()

        def op(conn: sqlite3.Connection) -> int:
            cursor = conn.execute(
                "INSERT INTO campaigns "
                "(name, run_id, git_rev, created_utc, manifest) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    name,
                    self.run_id,
                    git_rev,
                    _now(),
                    json.dumps(manifest, sort_keys=True),
                ),
            )
            return int(cursor.lastrowid)

        return self._write(op)

    def iter_campaigns(
        self, name: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        """Recorded campaign runs, oldest first (optionally by name)."""
        if name is None:
            rows = self._read(
                lambda conn: conn.execute(
                    "SELECT id, name, run_id, git_rev, created_utc, manifest "
                    "FROM campaigns ORDER BY id"
                ).fetchall()
            )
        else:
            rows = self._read(
                lambda conn: conn.execute(
                    "SELECT id, name, run_id, git_rev, created_utc, manifest "
                    "FROM campaigns WHERE name=? ORDER BY id",
                    (name,),
                ).fetchall()
            )
        for row in rows:
            yield {
                "id": row[0],
                "name": row[1],
                "run_id": row[2],
                "git_rev": row[3],
                "created_utc": row[4],
                "manifest": json.loads(row[5]),
            }

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore({str(self.path)!r}, trials={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()
