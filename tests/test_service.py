"""Tests for the campaign service (repro.service).

Headline properties: a submission splits into cache hits and queued
cold trials whose keys agree with the batch runner's; the executor
drains the queue through the standard trial path and banks results
bit-identical to :func:`run_trials`; trial failures retry inside their
batch and park after ``MAX_ATTEMPTS``; payload/key drift fails
permanently;
and the daemon serves the whole cycle over HTTP — cold submit, poll,
fold, then a warm resubmit answered entirely from the store.
"""

import http.client
import json
import os
import sqlite3
import threading
import time

import pytest

import repro.core.batch as batch_mod
import repro.core.parallel as parallel_mod
import repro.store.hashing as hashing
from repro.core.batch import MAX_ATTEMPTS
from repro.core.experiment import run_trials
from repro.obs.spans import record_spans
from repro.service import (
    CampaignService,
    QueueExecutor,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    plan_submission,
    submission_campaign,
    ticket_results,
    ticket_status,
)
from repro.store import (
    Campaign,
    ResultStore,
    campaign_keys,
    load_campaign_results,
    run_campaign,
)

CAMPAIGN = {
    "name": "svc",
    "topology": {"kind": "skewed", "nodes": 24, "distribution": "70-30"},
    "schemes": {
        "fifo-0.5": {"mrai": 0.5},
        "dynamic": {"mrai_scheme": "dynamic", "levels": [0.5, 1.25, 2.25]},
    },
    "axis": {"name": "failure_fraction", "values": [0.1]},
    "seeds": [1, 2],
}


def make_campaign(**overrides):
    data = dict(CAMPAIGN)
    data.update(overrides)
    return Campaign.from_dict(data)


def small_campaign(seeds=None):
    """One scheme, one axis value: one trial per seed."""
    overrides = {"schemes": {"fifo-0.5": {"mrai": 0.5}}}
    if seeds is not None:
        overrides["seeds"] = seeds
    return make_campaign(**overrides)


def folded_signature(series_list):
    """Hashable fold of Series objects (in-process results)."""
    return sorted(
        (
            s.label,
            tuple(
                (p.x, p.delay, p.messages, p.unreachable)
                for p in s.points
            ),
        )
        for s in series_list
    )


def json_signature(series_payload):
    """The same fold from the service's JSON ``/result`` payload."""
    return sorted(
        (
            s["label"],
            tuple(
                (p["x"], p["delay"], p["messages"], p["unreachable"])
                for p in s["points"]
            ),
        )
        for s in series_payload
    )


def executor_for(store, jobs=1, **kwargs):
    """A queue executor over ``store`` with the daemon's config."""
    config = ServiceConfig(
        store=str(store.path), jobs=jobs, batch_size=8, quiet=True
    )
    return QueueExecutor(store, config, **kwargs)


def drain_fully(executor):
    while executor.drain_once():
        pass


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


# ----------------------------------------------------------------------
# Submission normalization
# ----------------------------------------------------------------------
def test_submission_campaign_parses_grid():
    campaign = submission_campaign(CAMPAIGN)
    assert campaign.name == "svc"
    assert campaign.total_trials == 4


def test_single_spec_wraps_into_equivalent_campaign_cell():
    data = {
        "topology": dict(CAMPAIGN["topology"]),
        "scheme": {"mrai": 0.5, "failure_fraction": 0.2},
        "seed": 3,
    }
    wrapped = submission_campaign(data)
    assert wrapped.values == [0.2]
    assert wrapped.seeds == [3]
    grid = make_campaign(
        schemes={"spec": {"mrai": 0.5, "failure_fraction": 0.2}},
        axis={"name": "failure_fraction", "values": [0.2]},
        seeds=[3],
        name="adhoc",
    )
    [wrapped_trial] = campaign_keys(wrapped)
    [grid_trial] = campaign_keys(grid)
    assert wrapped_trial.key == grid_trial.key


def test_single_spec_defaults_failure_fraction():
    campaign = submission_campaign(
        {
            "topology": dict(CAMPAIGN["topology"]),
            "scheme": {"mrai": 0.5},
            "seeds": [1, 2],
        }
    )
    assert campaign.values == [0.05]
    assert campaign.total_trials == 2


@pytest.mark.parametrize(
    "body, match",
    [
        ({}, "must carry either"),
        ({"scheme": {"mrai": 0.5}}, "requires 'topology'"),
        (
            {
                "scheme": {"mrai": 0.5},
                "topology": {"kind": "skewed", "nodes": 24},
            },
            "requires 'seed'",
        ),
    ],
)
def test_submission_validation(body, match):
    with pytest.raises(ValueError, match=match):
        submission_campaign(body)


# ----------------------------------------------------------------------
# Planning: cache hits vs queued cold trials
# ----------------------------------------------------------------------
def test_plan_submission_cold_then_duplicate(store):
    campaign = make_campaign()
    first = plan_submission(campaign, store)
    assert (first.total, first.cached, first.enqueued) == (4, 0, 4)
    assert not first.complete
    assert store.queue_counts()["pending"] == 4
    # An identical submission while the first is open queues nothing.
    second = plan_submission(campaign, store)
    assert (second.enqueued, second.deduplicated) == (0, 4)
    assert second.ticket != first.ticket
    assert store.ticket_info(first.ticket)["keys"] == first.keys


def test_ticket_status_tracks_queue_and_store(store):
    campaign = small_campaign()
    receipt = plan_submission(campaign, store)
    assert ticket_status(receipt.ticket, store)["state"] == "pending"

    [task] = store.lease_tasks("w", 1, lease_seconds=30)
    status = ticket_status(receipt.ticket, store)
    assert (status["running"], status["pending"]) == (1, 1)
    assert status["state"] == "running"

    store.fail_task(task.id, "boom")  # terminal
    status = ticket_status(receipt.ticket, store)
    assert status["state"] == "failed"
    assert status["failures"][0]["error"] == "boom"

    with pytest.raises(KeyError):
        ticket_status("nope", store)


def test_ticket_results_gates_on_completion(store):
    receipt = plan_submission(small_campaign(), store)
    with pytest.raises(KeyError):
        ticket_results("nope", store)
    with pytest.raises(ValueError, match="2/2 trials missing"):
        ticket_results(receipt.ticket, store)
    # A ticket whose keys and campaign document disagree is a fault.
    store.record_ticket(
        "short", "svc", receipt.keys[:1], campaign=small_campaign().to_dict()
    )
    with pytest.raises(ValueError, match="1 keys .* 2 trials"):
        ticket_results("short", store)


def test_topology_digested_once_per_seed_and_result_replans_nothing(
    store, monkeypatch
):
    calls = []
    real = hashing.topology_digest

    def counted(topology):
        calls.append(topology)
        return real(topology)

    def digests_of(fn):
        del calls[:]
        fn()
        return len(calls)

    monkeypatch.setattr(hashing, "topology_digest", counted)
    campaign = make_campaign(
        axis={"name": "failure_fraction", "values": [0.1, 0.2]}
    )
    seeds = len(campaign.seeds)
    assert campaign.total_trials == 2 * 2 * seeds
    run = lambda: run_campaign(campaign, store, jobs=2)  # noqa: E731
    assert digests_of(run) == seeds  # cold: planned, banked and pooled
    assert digests_of(run) == seeds  # warm: planned only
    receipt = plan_submission(campaign, store)
    assert receipt.complete
    folded = {}
    with record_spans() as recorder:
        assert digests_of(
            lambda: folded.update(ticket_results(receipt.ticket, store))
        ) == 0
    assert not [
        r for r in recorder.records if r["name"] == "topology.build"
    ]
    # Folded from the ticket's own keys, in the order of the ticket's
    # own document (labels sorted), to what a planned fold gives.
    assert [s["label"] for s in folded["series"]] == sorted(campaign.schemes)
    assert json_signature(folded["series"]) == folded_signature(
        load_campaign_results(campaign, store)[0]
    )


# ----------------------------------------------------------------------
# Executor: drain, bank, retry
# ----------------------------------------------------------------------
def test_executor_banks_bit_identical_to_run_trials(store):
    campaign = small_campaign()
    receipt = plan_submission(campaign, store)
    executor = executor_for(store)
    drain_fully(executor)
    assert executor.executed == receipt.total == 2
    assert ticket_status(receipt.ticket, store)["state"] == "done"

    # The exact trials run_trials would produce for the same cell.
    planned = campaign_keys(campaign)
    serial = run_trials(
        campaign.topology_factory(), planned[0].spec, campaign.seeds
    )
    by_seed = {t.seed: t for t in serial.trials}
    for trial in planned:
        assert store.get(trial.key) == by_seed[trial.seed]

    folded = ticket_results(receipt.ticket, store)
    assert json_signature(folded["series"]) == folded_signature(
        load_campaign_results(campaign, store)[0]
    )


def test_executor_completes_an_already_banked_task_without_rerunning(
    store, monkeypatch
):
    campaign = small_campaign(seeds=[1])
    receipt = plan_submission(campaign, store)
    # Another drainer banked the trial and died before flipping the row.
    [trial] = campaign_keys(campaign)
    banked = run_trials(
        campaign.topology_factory(), trial.spec, [trial.seed]
    ).trials[0]
    store.put(trial.key, banked)

    def must_not_run(*trial):
        raise AssertionError("a banked trial was executed again")

    monkeypatch.setattr(batch_mod, "execute_trial", must_not_run)
    executor = executor_for(store)
    drain_fully(executor)
    assert executor.executed == 0 and executor.failed_attempts == 0
    assert ticket_status(receipt.ticket, store)["state"] == "done"


def test_drain_once_stops_after_the_current_outcome_and_releases_the_rest(
    store,
):
    plan_submission(small_campaign(seeds=[1, 2, 3]), store)
    stop = threading.Event()
    executor = executor_for(
        store, monitor=lambda tick: stop.set()  # ticks once per outcome
    )
    assert executor.drain_once(stop=stop) == 1
    assert executor.executed == 1
    counts = store.queue_counts()
    assert (counts["done"], counts["pending"], counts["running"]) == (1, 2, 0)


def test_drain_once_releases_a_trial_between_attempts(store, monkeypatch):
    plan_submission(small_campaign(seeds=[1]), store)

    def always_fails(*trial):
        raise RuntimeError("injected")

    monkeypatch.setattr(batch_mod, "execute_trial", always_fails)
    stop = threading.Event()
    executor = executor_for(store, monitor=lambda tick: stop.set())
    assert executor.drain_once(stop=stop) == 0
    assert executor.failed_attempts == 1 and executor.failed_terminal == 0
    counts = store.queue_counts()
    assert (counts["pending"], counts["running"], counts["failed"]) == (
        1, 0, 0,
    )


def test_executor_retries_in_batch_then_succeeds(store, monkeypatch):
    receipt = plan_submission(small_campaign(), store)
    real = batch_mod.execute_trial
    calls = {"n": 0}

    def flaky(*trial):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected")
        return real(*trial)

    monkeypatch.setattr(batch_mod, "execute_trial", flaky)
    executor = executor_for(store)
    assert executor.drain_once() == 2  # the retry runs inside the batch
    assert executor.retried == 1
    assert executor.failed_attempts == 1
    assert executor.executed == 2
    assert executor.failed_terminal == 0
    assert ticket_status(receipt.ticket, store)["state"] == "done"
    assert store.queue_counts()["done"] == 2


def test_executor_retries_a_worker_killing_trial_on_the_pool(
    store, monkeypatch
):
    # The first execution of one trial takes its worker process down;
    # at jobs=2 the in-batch retry runs on the respawned pool, so one
    # drain banks both trials.
    if parallel_mod.default_start_method() != "fork":
        pytest.skip("the patched execute_trial reaches workers by fork")
    receipt = plan_submission(small_campaign(), store)
    marker = store.path.parent / "killed-once"
    real = parallel_mod.execute_trial

    def first_run_of_second_trial_kills_its_process(index, *trial):
        if index == 1 and not marker.exists():
            marker.touch()
            os._exit(13)
        return real(index, *trial)

    # Workers forked from here on inherit the patched module.
    parallel_mod.shutdown_worker_pool()
    monkeypatch.setattr(
        parallel_mod,
        "execute_trial",
        first_run_of_second_trial_kills_its_process,
    )
    try:
        executor = executor_for(store, jobs=2)
        assert executor.drain_once() == 2
    finally:
        parallel_mod.shutdown_worker_pool()
    assert executor.retried == 1
    assert ticket_status(receipt.ticket, store)["state"] == "done"
    counts = store.queue_counts()
    assert (counts["done"], counts["running"], counts["pending"]) == (
        2, 0, 0,
    )


def test_executor_parks_task_after_max_attempts(store, monkeypatch):
    receipt = plan_submission(
        small_campaign(), store
    )

    def always_fails(*trial):
        raise RuntimeError("injected")

    monkeypatch.setattr(batch_mod, "execute_trial", always_fails)
    executor = executor_for(store)
    drain_fully(executor)
    assert executor.executed == 0
    assert executor.failed_attempts == 2 * MAX_ATTEMPTS
    assert executor.failed_terminal == 2
    assert store.queue_counts()["failed"] == 2
    status = ticket_status(receipt.ticket, store)
    assert status["state"] == "failed"
    assert all(
        f["error"] == "RuntimeError: injected" for f in status["failures"]
    )
    assert all(f["attempts"] == MAX_ATTEMPTS for f in status["failures"])


def test_executor_fails_permanently_on_key_drift(store):
    receipt = plan_submission(
        small_campaign(seeds=[1]), store
    )
    # Corrupt the queued payload so it rebuilds to a different hash.
    conn = sqlite3.connect(str(store.path))
    [(raw,)] = conn.execute("SELECT payload FROM queue").fetchall()
    payload = json.loads(raw)
    payload["seed"] = payload["seed"] + 1
    conn.execute("UPDATE queue SET payload=?", (json.dumps(payload),))
    conn.commit()
    conn.close()

    executor = executor_for(store)
    drain_fully(executor)
    assert executor.executed == 0
    assert executor.failed_terminal == 1
    status = ticket_status(receipt.ticket, store)
    assert status["state"] == "failed"
    assert "materialize" in status["failures"][0]["error"]


# ----------------------------------------------------------------------
# Daemon over HTTP
# ----------------------------------------------------------------------
def service_config(tmp_path):
    return ServiceConfig(
        store=str(tmp_path / "svc.db"),
        port=0,
        jobs=1,
        batch_size=8,
        poll_interval=0.05,
        quiet=True,
    )


@pytest.fixture()
def service(tmp_path):
    svc = CampaignService(service_config(tmp_path))
    svc.start()
    try:
        yield svc
    finally:
        svc.shutdown()


def test_service_cold_then_warm_over_http(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    assert client.health()["status"] == "ok"

    receipt = client.submit(CAMPAIGN)
    assert (receipt["total"], receipt["enqueued"]) == (4, 4)
    assert not receipt["complete"]
    client.wait(receipt["ticket"], timeout=120.0, poll_interval=0.05)

    folded = client.result(receipt["ticket"])
    assert {s["label"] for s in folded["series"]} == {
        "fifo-0.5",
        "dynamic",
    }

    # Warm resubmission: answered entirely from the store.
    again = client.submit(CAMPAIGN)
    assert again["complete"]
    assert (again["cached"], again["enqueued"]) == (4, 0)
    assert client.result(again["ticket"])["series"] == folded["series"]
    assert client.queue_status()["executor"]["executed"] == 4

    # Matches a from-scratch serial fold of the same campaign.
    serial_sig = folded_signature(
        load_campaign_results(make_campaign(), service.backend)[0]
    )
    assert json_signature(folded["series"]) == serial_sig

    # Single banked trial with provenance, by content key.
    key = receipt["keys"][0]
    trial = client.trial(key)
    assert trial["trial"]["seed"] in CAMPAIGN["seeds"]
    assert trial["provenance"]["schema_version"] >= 2


def test_service_http_error_mapping(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    with pytest.raises(ServiceError) as err:
        client.status("not-a-ticket")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.submit({"bogus": True})
    assert err.value.status == 400
    # A body of the wrong shape is the submitter's error, not the server's.
    with pytest.raises(ServiceError) as err:
        client.submit(dict(CAMPAIGN, schemes=[1]))
    assert err.value.status == 400
    assert "'schemes'" in err.value.message
    with pytest.raises(ServiceError) as err:
        client.submit(dict(CAMPAIGN, axis={"name": "failure_fraction"}))
    assert "'axis'" in err.value.message
    with pytest.raises(ServiceError) as err:
        client.submit(dict(CAMPAIGN, name="a/b"))
    assert err.value.status == 400 and "'name'" in err.value.message
    for block in ({"kind": "skwed"}, {"kind": "skewed", "nodse": 120}):
        with pytest.raises(ServiceError) as err:
            client.submit(dict(CAMPAIGN, topology=block))
        assert err.value.status == 400 and "topology" in err.value.message
    # Seeds and values are parsed, not coerced: a fractional seed, a
    # repeated one or a NaN axis value is the submitter's error.
    for body, message in (
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seeds": [1.7]},
         "seeds[0] must be an integer, got 1.7"),
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seed": True},
         "seeds[0] must be an integer, got True"),
        (dict(CAMPAIGN, seeds=[1, 1]), "seeds must be distinct"),
        (dict(CAMPAIGN, axis={"name": "mrai", "values": [float("nan")]}),
         "axis.values[0] must be finite"),
    ):
        with pytest.raises(ServiceError) as err:
            client.submit(body)
        assert err.value.status == 400 and message in err.value.message
    with pytest.raises(ServiceError) as err:
        client.trial("0" * 32)
    assert err.value.status == 404
    # A Content-Length that is not an integer is a 400 answer, not a
    # dropped connection.
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.putrequest("POST", "/submit")
        conn.putheader("Content-Length", "1e3")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
    finally:
        conn.close()


def test_service_deeply_nested_body_is_a_400(service):
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.request("POST", "/submit", body=b"[" * 200_000)
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read()) == {
            "error": "request body is not valid JSON"
        }
        assert response.getheader("Connection") == "close"
    finally:
        conn.close()


def test_service_truncated_body_is_a_408_and_frees_its_thread(
    tmp_path, monkeypatch
):
    # A Content-Length larger than what arrives: the handler thread
    # gives up after the socket timeout instead of blocking in read.
    from repro.service import api

    monkeypatch.setattr(api, "SOCKET_TIMEOUT_SECONDS", 0.5)
    svc = CampaignService(service_config(tmp_path))
    svc.start()
    try:
        before = threading.active_count()
        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=10)
        try:
            conn.putrequest("POST", "/submit")
            conn.putheader("Content-Length", "100")
            conn.endheaders()
            conn.send(b'{"na')
            response = conn.getresponse()
            assert response.status == 408
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read()) == {
                "error": "request body incomplete"
            }
        finally:
            conn.close()
        deadline = time.monotonic() + 10
        while threading.active_count() > before:
            assert time.monotonic() < deadline, threading.enumerate()
            time.sleep(0.05)
    finally:
        svc.shutdown()


def test_service_early_error_leaves_no_body_on_the_connection(service):
    # A 404 answered before the body is read must not let the body's
    # bytes parse as the next request on the same keep-alive connection.
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.request(
            "POST",
            "/nope",
            body=json.dumps(CAMPAIGN).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        conn.request("GET", "/health")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


def test_service_rejects_submissions_while_draining(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    service.request_shutdown()
    with pytest.raises(ServiceError) as err:
        client.submit(CAMPAIGN)
    assert err.value.status == 503
    assert client.health()["status"] == "draining"


def test_cli_client_verbs_over_http(service, tmp_path, capsys):
    """`submit --wait`, `result` and `queue status` against a live daemon."""
    from repro.cli import main

    url = f"http://127.0.0.1:{service.port}"
    cfile = tmp_path / "campaign.json"
    cfile.write_text(json.dumps(CAMPAIGN), encoding="utf-8")
    assert main(["submit", str(cfile), "--url", url, "--wait"]) == 0
    receipt_line, done_line = capsys.readouterr().out.splitlines()
    ticket = receipt_line.split()[1].rstrip(":")
    assert receipt_line == (
        f"ticket {ticket}: campaign svc — 4 trials, 0 cached (0%), "
        f"4 enqueued, 0 deduplicated"
    )
    assert done_line == f"ticket {ticket} done: 4/4 trials banked"

    assert main(["submit", str(cfile), "--url", url]) == 0
    assert "4 cached (100%), 0 enqueued" in capsys.readouterr().out
    assert main(["result", ticket, "--url", url]) == 0
    out = capsys.readouterr().out
    assert out.startswith("campaign svc (axis failure_fraction, 2 seed(s))")
    assert "  dynamic: failure_fraction=0.1 delay=" in out
    assert main(["queue", "status", "--url", url, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["executor"]["executed"] == 4
    assert main(["queue", "status", "--url", url]) == 0
    assert "queue: 0 pending, 0 running, 4 done" in capsys.readouterr().out

    # The daemon's errors are one stderr line and exit 1.
    assert main(["result", "not-a-ticket", "--url", url]) == 1
    assert "service error 404" in capsys.readouterr().err
