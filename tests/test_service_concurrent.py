"""Concurrent executors sharing one store (repro.service + repro.store).

The properties ISSUE 9 pins down: two OS processes draining the same
queue/store execute every cold trial exactly once between them (no
duplicates, no losses) and their folded output is bitwise-identical to
a serial run; a claimant that dies holding leases only delays its tasks
until the leases expire; and a drainer SIGKILLed mid-campaign never
prevents the campaign from completing.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.service import QueueExecutor, ServiceConfig, plan_submission
from repro.service.submission import ticket_status
from repro.store import (
    Campaign,
    ResultStore,
    load_campaign_results,
    run_campaign,
)

CAMPAIGN = {
    "name": "conc",
    "topology": {"kind": "skewed", "nodes": 24, "distribution": "70-30"},
    "schemes": {
        "fifo-0.5": {"mrai": 0.5},
        "dynamic": {"mrai_scheme": "dynamic", "levels": [0.5, 1.25, 2.25]},
    },
    "axis": {"name": "failure_fraction", "values": [0.1]},
    "seeds": [1, 2, 3, 4],
}


def make_campaign(**overrides):
    data = dict(CAMPAIGN)
    data.update(overrides)
    return Campaign.from_dict(data)


def series_signature(series_list):
    return sorted(
        (s.label, s.delays, s.message_counts) for s in series_list
    )


def plan(path, campaign):
    """Plan a submission through a short-lived handle (so no SQLite
    connection is ever carried across a later fork)."""
    with ResultStore(path) as store:
        return plan_submission(campaign, store)


def executor_config(path, batch_size, lease_seconds):
    return ServiceConfig(
        store=str(path),
        jobs=1,
        batch_size=batch_size,
        lease_seconds=lease_seconds,
        poll_interval=0.05,
        quiet=True,
    )


def _drain(path, counters, batch_size, lease_seconds):
    """Child-process drain loop: own handle, own executor identity."""
    with ResultStore(path) as store:
        executor = QueueExecutor(
            store, executor_config(path, batch_size, lease_seconds)
        )
        executor.drain(idle_timeout=1.0)
        counters.put(
            (executor.owner, executor.executed, executor.failed_terminal)
        )


@pytest.fixture()
def mp_ctx():
    return multiprocessing.get_context("fork")


def test_two_processes_drain_once_each_and_fold_serial_identical(
    tmp_path, mp_ctx
):
    campaign = make_campaign()
    path = tmp_path / "shared.db"
    receipt = plan(path, campaign)
    assert receipt.enqueued == 8

    counters = mp_ctx.SimpleQueue()
    drainers = [
        mp_ctx.Process(
            target=_drain,
            # batch_size=1 maximizes interleaving: every claim is a
            # separate lease transaction racing the sibling's.
            args=(path, counters, 1, 30.0),
        )
        for n in range(2)
    ]
    for p in drainers:
        p.start()
    for p in drainers:
        p.join(timeout=120)
        assert p.exitcode == 0

    tallies = {}
    while not counters.empty():
        owner, executed, failed = counters.get()
        tallies[owner] = (executed, failed)
    assert len(tallies) == 2
    # Exactly once each: executions across both drainers sum to the
    # cold-trial count, with nothing terminally failed or left queued.
    assert sum(e for e, _ in tallies.values()) == 8
    assert all(f == 0 for _, f in tallies.values())

    with ResultStore(path) as store:
        counts = store.queue_counts()
        assert counts["done"] == 8
        assert counts["pending"] == counts["running"] == 0
        assert counts["failed"] == 0
        assert all(store.has(key) for key in receipt.keys)
        concurrent_sig = series_signature(
            load_campaign_results(campaign, store)[0]
        )

    with ResultStore(tmp_path / "serial.db") as serial_store:
        run_campaign(campaign, serial_store, jobs=1)
        serial_sig = series_signature(
            load_campaign_results(campaign, serial_store)[0]
        )
    assert concurrent_sig == serial_sig


def test_dead_claimants_leases_expire_and_campaign_completes(tmp_path):
    campaign = make_campaign(seeds=[1, 2])
    path = tmp_path / "crash.db"
    receipt = plan(path, campaign)
    assert receipt.enqueued == 4

    with ResultStore(path) as store:
        # A worker claims every task, then "dies" without completing,
        # heartbeating or releasing anything.
        claimed = store.lease_tasks(
            "dead-worker", 4, lease_seconds=1.0
        )
        assert len(claimed) == 4

        executor = QueueExecutor(store, executor_config(path, 4, 30.0))
        # While the dead worker's leases hold, nothing is runnable.
        assert executor.drain_once() == 0
        # After they lapse, the tasks re-dispatch to this executor.
        executor.drain(idle_timeout=2.0)
        assert executor.executed == 4
        status = ticket_status(receipt.ticket, store)
        assert status["state"] == "done"
        assert store.queue_counts()["failed"] == 0


def test_sigkilled_drainer_does_not_block_completion(tmp_path, mp_ctx):
    campaign = make_campaign(seeds=list(range(1, 13)))
    path = tmp_path / "killed.db"
    receipt = plan(path, campaign)
    total = receipt.enqueued
    assert total == 24

    counters = mp_ctx.SimpleQueue()
    victim = mp_ctx.Process(
        target=_drain,
        args=(path, counters, 2, 2.0),
    )
    victim.start()
    # Kill the drainer as soon as it has banked anything — mid-campaign,
    # typically holding live leases on its current batch.
    with ResultStore(path) as store:
        deadline = time.monotonic() + 60
        while len(store) == 0:
            assert time.monotonic() < deadline, "victim banked nothing"
            time.sleep(0.005)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert victim.exitcode == -signal.SIGKILL

    with ResultStore(path) as store:
        survivor = QueueExecutor(store, executor_config(path, 4, 30.0))
        # Idle window > the victim's 2s leases: orphaned running tasks
        # expire and re-dispatch before the survivor gives up.
        survivor.drain(idle_timeout=3.0)
        counts = store.queue_counts()
        assert counts["done"] == total
        assert counts["failed"] == 0
        assert all(store.has(key) for key in receipt.keys)
        assert ticket_status(receipt.ticket, store)["state"] == "done"
        # Folding still works on the jointly-produced store.
        series_list, _ = load_campaign_results(campaign, store)
        assert {s.label for s in series_list} == {"fifo-0.5", "dynamic"}
