"""Tests for the store backend layer under the campaign service.

Covers the durable queue's lease protocol (exclusivity, expiry
re-dispatch, heartbeat, backoff gates, release), ticket persistence
and the multi-writer hardening of :class:`ResultStore` (thread sharing,
busy-timeout wait-out of a competing writer's lock).
"""

import sqlite3
import threading
import time

import pytest

from repro.core.experiment import TrialResult
from repro.store import ResultStore
from repro.store.queue import QUEUE_STATES


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


def make_trial(seed=1, delay=2.5):
    return TrialResult(
        convergence_delay=delay,
        messages_sent=10,
        withdrawals_sent=1,
        updates_processed=9,
        stale_dropped=0,
        route_changes=4,
        failure_size=2,
        failure_time=50.0,
        warmup_time=40.0,
        warmup_messages=30,
        events_executed=100,
        seed=seed,
        truncated=False,
        warmup_wall=0.01,
        convergence_wall=0.02,
    )


# ----------------------------------------------------------------------
# Queue: enqueue / dedupe / revive
# ----------------------------------------------------------------------
def test_enqueue_dedupes_open_tasks(store):
    tid, created = store.enqueue("k1", {"seed": 1})
    assert created
    tid2, created2 = store.enqueue("k1", {"seed": 1})
    assert tid2 == tid and not created2
    assert store.queue_counts()["pending"] == 1


def test_enqueue_revives_terminally_failed_task(store):
    tid, _ = store.enqueue("k1", {"seed": 1})
    [task] = store.lease_tasks("w", 1, lease_seconds=30)
    store.fail_task(task.id, "boom")  # terminal
    assert store.queue_counts()["failed"] == 1
    tid2, created = store.enqueue("k1", {"seed": 1}, ticket="t2")
    assert created and tid2 == tid
    assert store.queue_states_for(["k1"]) == {
        "k1": {"state": "pending", "attempts": 0, "error": None}
    }
    [revived] = store.lease_tasks("w", 1, lease_seconds=30)
    assert revived.id == tid
    assert revived.ticket == "t2"


def test_running_task_blocks_duplicate_enqueue(store):
    store.enqueue("k1", {"seed": 1})
    store.lease_tasks("w", 1, lease_seconds=30)
    _tid, created = store.enqueue("k1", {"seed": 1})
    assert not created
    assert store.queue_counts()["running"] == 1


# ----------------------------------------------------------------------
# Queue: lease protocol
# ----------------------------------------------------------------------
def test_lease_is_exclusive_across_handles(store):
    for i in range(4):
        store.enqueue(f"k{i}", {"seed": i})
    other = ResultStore(store.path)
    try:
        mine = store.lease_tasks("a", 3, lease_seconds=30)
        theirs = other.lease_tasks("b", 3, lease_seconds=30)
        assert len(mine) == 3 and len(theirs) == 1
        assert {t.id for t in mine}.isdisjoint({t.id for t in theirs})
    finally:
        other.close()


def test_expired_lease_is_redispatched(store):
    store.enqueue("k1", {"seed": 1})
    t0 = time.time()
    [task] = store.lease_tasks("dead", 1, lease_seconds=5, now=t0)
    # Within the lease nothing is runnable...
    assert store.lease_tasks("live", 1, lease_seconds=5, now=t0 + 4) == []
    # ...after expiry the task hands over, attempts preserved.
    [stolen] = store.lease_tasks("live", 1, lease_seconds=5, now=t0 + 6)
    assert stolen.id == task.id
    assert stolen.lease_owner == "live"


def test_heartbeat_extends_only_owned_running_leases(store):
    store.enqueue("k1", {"seed": 1})
    store.enqueue("k2", {"seed": 2})
    t0 = time.time()
    tasks = store.lease_tasks("a", 2, lease_seconds=5, now=t0)
    ids = [t.id for t in tasks]
    # Owner extends both; a stranger extends none.
    assert store.heartbeat_tasks("a", ids, 100, now=t0 + 1) == 2
    assert store.heartbeat_tasks("b", ids, 100, now=t0 + 1) == 0
    # The extension really moved the expiry: not claimable at t0+50.
    assert store.lease_tasks("b", 2, lease_seconds=5, now=t0 + 50) == []


def test_heartbeat_does_not_resurrect_stolen_task(store):
    store.enqueue("k1", {"seed": 1})
    t0 = time.time()
    [task] = store.lease_tasks("slow", 1, lease_seconds=1, now=t0)
    [stolen] = store.lease_tasks("fast", 1, lease_seconds=30, now=t0 + 2)
    assert stolen.id == task.id
    assert store.heartbeat_tasks("slow", [task.id], 30, now=t0 + 3) == 0


def test_release_returns_running_tasks_to_pending(store):
    for i in range(3):
        store.enqueue(f"k{i}", {"seed": i})
    tasks = store.lease_tasks("w", 3, lease_seconds=300)
    released = store.release_tasks("w", [t.id for t in tasks[:2]])
    assert released == 2
    counts = store.queue_counts()
    assert counts["pending"] == 2 and counts["running"] == 1
    # Released tasks are claimable immediately, not after lease expiry.
    assert len(store.lease_tasks("x", 3, lease_seconds=30)) == 2


def test_complete_task_and_counts(store):
    store.enqueue("k1", {"seed": 1})
    [task] = store.lease_tasks("w", 1, lease_seconds=30)
    store.complete_task(task.id)
    counts = store.queue_counts()
    assert counts == {"pending": 0, "running": 0, "done": 1, "failed": 0}
    assert set(counts) == set(QUEUE_STATES)


def test_queue_states_for_reports_latest_row(store):
    store.enqueue("k1", {"seed": 1})
    states = store.queue_states_for(["k1", "never-queued"])
    assert states["k1"]["state"] == "pending"
    assert "never-queued" not in states


# ----------------------------------------------------------------------
# Tickets
# ----------------------------------------------------------------------
def test_ticket_roundtrip_with_campaign_doc(store):
    doc = {"name": "c", "topology": {"kind": "skewed", "nodes": 24}}
    store.record_ticket("t1", "c", ["k1", "k2"], campaign=doc)
    info = store.ticket_info("t1")
    assert info["keys"] == ["k1", "k2"]
    assert info["campaign"] == doc
    assert store.ticket_info("nope") is None
    assert store.stats()["tickets"] == 1


# ----------------------------------------------------------------------
# Multi-writer hardening
# ----------------------------------------------------------------------
def test_one_handle_shared_across_threads(store):
    errors = []

    def worker(n):
        try:
            for i in range(25):
                key = f"t{n}-{i}"
                store.put(key, make_trial(seed=i))
                assert store.get(key) is not None
                store.enqueue(f"q{n}-{i}", {"seed": i})
        except Exception as exc:  # noqa: BLE001 - reported to assert
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(n,)) for n in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(store) == 100
    assert store.queue_counts()["pending"] == 100


def test_write_waits_out_competing_writers_lock(store):
    """A write that meets another connection's lock succeeds (no
    'database is locked' escape) once the lock clears — the
    busy_timeout + retry layers working together."""
    blocker = sqlite3.connect(
        str(store.path), check_same_thread=False
    )
    blocker.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.3, blocker.commit)
    release.start()
    try:
        store.put("contended", make_trial())  # must not raise
    finally:
        release.cancel()
        blocker.close()
    assert store.has("contended")


def test_stats_reports_sizes_and_queue(store):
    store.put("k1", make_trial())
    store.enqueue("cold", {"seed": 9})
    store.record_ticket("t1", "c", ["k1"], campaign={"name": "c"})
    stats = store.stats()
    assert stats["trials"] == 1
    assert stats["tickets"] == 1
    assert stats["queue"]["pending"] == 1
    assert stats["banked_wall_seconds"] == pytest.approx(0.03)
    assert stats["db_bytes"] > 0
    assert stats["schema_version"] >= 2
