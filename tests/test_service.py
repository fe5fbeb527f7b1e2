"""Tests for the campaign service (repro.service).

Headline properties: a submission splits into cache hits and queued
cold trials whose keys agree with the batch runner's; the executor
drains the queue through the standard trial path and banks results
bit-identical to :func:`run_experiment`; trial failures retry inside their
batch and park after ``MAX_ATTEMPTS``; payload/key drift fails
permanently;
and the daemon serves the whole cycle over HTTP — cold submit, poll,
fold, then a warm resubmit answered entirely from the store.
"""

import dataclasses
import http.client
import json
import os
import platform
import re
import socket
import sqlite3
import sys
import threading
import time

import pytest

import repro.core.batch as batch_mod
import repro.core.parallel as parallel_mod
import repro.store.hashing as hashing
from repro.core.batch import MAX_ATTEMPTS
from repro.bgp.mrai import ConstantMRAI
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.obs.spans import record_spans
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    plan_submission,
    ticket_results,
    ticket_status,
)
from repro.service.executor import QueueExecutor
from repro.service.submission import SubmissionReceipt, submission_campaign
from repro.store import (
    Campaign,
    ResultStore,
    load_campaign_results,
    run_campaign,
)
from repro.store.campaign import campaign_keys

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
def test_executor_banks_bit_identical_to_run_experiment(store):
    campaign = small_campaign()
    receipt = plan_submission(campaign, store)
    executor = executor_for(store)
    drain_fully(executor)
    assert executor.executed == receipt.total == 2
    assert ticket_status(receipt.ticket, store)["state"] == "done"

    # The exact trials a plain run_experiment loop produces for the cell.
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    factory = campaign.topology_factory()
    for trial in campaign_keys(campaign):
        assert store.get(trial.key) == run_experiment(
            factory(trial.seed), spec, seed=trial.seed
        )

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
    [banked] = run_campaign(campaign).results[("fifo-0.5", 0.1)].trials
    store.put(trial.key, banked)

    def must_not_run(*trial):
        raise AssertionError("a banked trial was executed again")

    monkeypatch.setattr(batch_mod, "execute_trial", must_not_run)
    executor = executor_for(store)
    drain_fully(executor)
    assert executor.executed == 0 and executor.failed_attempts == 0
    assert ticket_status(receipt.ticket, store)["state"] == "done"


def test_drain_once_stops_after_the_current_outcome_and_releases_the_rest(
    store, monkeypatch
):
    plan_submission(small_campaign(seeds=[1, 2, 3]), store)
    stop = threading.Event()
    real = batch_mod.execute_trial

    def run_then_stop(*trial):
        stop.set()
        return real(*trial)

    monkeypatch.setattr(batch_mod, "execute_trial", run_then_stop)
    executor = executor_for(store)
    assert executor.drain_once(stop=stop) == 1
    assert executor.executed == 1
    counts = store.queue_counts()
    assert (counts["done"], counts["pending"], counts["running"]) == (1, 2, 0)


def test_drain_once_releases_a_trial_between_attempts(store, monkeypatch):
    plan_submission(small_campaign(seeds=[1]), store)

    stop = threading.Event()

    def always_fails(*trial):
        stop.set()
        raise RuntimeError("injected")

    monkeypatch.setattr(batch_mod, "execute_trial", always_fails)
    executor = executor_for(store)
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


def test_health_counts_warm_submissions_without_a_session(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    receipt = client.submit(CAMPAIGN)
    client.wait(receipt["ticket"], timeout=120.0, poll_interval=0.05)
    assert client.submit(CAMPAIGN)["cached"] == 4
    health = client.health()
    assert "session" not in health
    assert (health["submissions"], health["served_cached"]) == (2, 4)
    assert health["executor"]["executed"] == 4


def test_a_service_trial_runs_unobserved(tmp_path, monkeypatch):
    # The daemon keeps no observation session, so its executor hands
    # the trial no observation recipe.
    real = batch_mod.execute_trial
    recipes = []

    def spy(index, topology, spec, seed, obs_config):
        recipes.append(obs_config)
        return real(index, topology, spec, seed, obs_config)

    monkeypatch.setattr(batch_mod, "execute_trial", spy)
    service = CampaignService(service_config(tmp_path))
    try:
        plan_submission(small_campaign(seeds=[1]), service.backend)
        drain_fully(service.executor)
    finally:
        service.shutdown()
    assert recipes == [None]
    assert service.executor.executed == 1


def test_note_submission_loses_no_count_under_contention(tmp_path):
    # Handler threads note submissions concurrently; the counts are
    # read-modify-writes, so a lost update would show as a short total.
    service = CampaignService(service_config(tmp_path))
    receipt = SubmissionReceipt(
        ticket="t", name="n", total=3, cached=2, enqueued=1, deduplicated=0
    )

    def note_many():
        for _ in range(500):
            service.note_submission(receipt)

    threads = [threading.Thread(target=note_many) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        service.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert (service.submissions, service.served_cached) == (4000, 8000)


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
    # Seeds and values are parsed, not coerced: a fractional, repeated
    # or negative seed or a NaN axis value is the submitter's error.
    for body, message in (
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seeds": [1.7]},
         "seeds[0] must be an integer, got 1.7"),
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seed": True},
         "seeds[0] must be an integer, got True"),
        (dict(CAMPAIGN, seeds=[1, 1]), "seeds must be distinct"),
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seed": -1},
         "seeds must be non-negative"),
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seed": 2**63},
         "seeds must be non-negative and below 2**63"),
        ({"topology": {"kind": "skewed"}, "scheme": {}, "seed": 2**128},
         "seeds must be non-negative and below 2**63"),
        (dict(CAMPAIGN, seeds={"master": -1, "count": 2}),
         "seeds.master must be non-negative and below 2**63"),
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


def read_answer(stream):
    """``(status line, header lines, body)`` of one answer on a raw
    socket's file, the body by its Content-Length."""
    status_line = stream.readline().decode("latin-1").rstrip("\r\n")
    headers = []
    while True:
        line = stream.readline().decode("latin-1").rstrip("\r\n")
        if not line:
            break
        headers.append(line)
    length = next(
        int(h.split(":", 1)[1])
        for h in headers
        if h.lower().startswith("content-length:")
    )
    return status_line, headers, stream.read(length)


def health_is_ok(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/health")
        response = conn.getresponse()
        return response.status == 200 and (
            json.loads(response.read())["status"] == "ok"
        )
    finally:
        conn.close()


LINE = 64 * 1024


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"GET /" + b"a" * LINE + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * LINE + b"\r\n\r\n", 431),
        (
            b"GET /health HTTP/1.1\r\n"
            + b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(101))
            + b"\r\n",
            431,
        ),
        (b"GET /health HTTP/2.0\r\n\r\n", 505),
        (b"garbage\r\n\r\n", 400),
        (b"BREW /health HTTP/1.1\r\n\r\n", 501),
    ],
    ids=[
        "long-request-line",
        "long-header-line",
        "101-headers",
        "http-2",
        "one-word",
        "unknown-method",
    ],
)
def test_service_hostile_request_gets_a_json_refusal(
    service, request_bytes, status
):
    # A request the daemon cannot parse still gets a real status line
    # and a JSON error, and its connection closes.
    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
        sock.sendall(request_bytes)
        with sock.makefile("rb") as stream:
            status_line, headers, body = read_answer(stream)
            assert stream.read() == b""
    assert status_line.startswith(f"HTTP/1.1 {status} ")
    assert "Content-Type: application/json" in headers
    assert "Connection: close" in headers
    assert set(json.loads(body)) == {"error"}
    assert health_is_ok(service.port)


def test_service_answers_expect_100_continue(service):
    # curl's path for a body: it waits for the interim 100 before
    # sending the body, then reads the final answer.
    body = json.dumps(small_campaign(seeds=[1]).to_dict()).encode()
    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
        sock.sendall(
            b"POST /submit HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n" % len(body)
        )
        with sock.makefile("rb") as stream:
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            status_line, _, answer = read_answer(stream)
    assert status_line == "HTTP/1.1 202 Accepted"
    assert json.loads(answer)["total"] == 1


def test_service_peer_hanging_up_mid_body_leaves_no_traceback(
    tmp_path, capfd
):
    # Content-Length: 100 with 4 bytes sent, then the client is gone:
    # the short read is an incomplete body, the answer to a dead peer is
    # dropped, and the handler thread ends.
    config = service_config(tmp_path)
    config.quiet = False
    svc = CampaignService(config)
    svc.start()
    try:
        before = threading.active_count()
        with socket.create_connection(("127.0.0.1", svc.port), timeout=10) as sock:
            sock.sendall(
                b"POST /submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                b'{"na'
            )
        deadline = time.monotonic() + 10
        while threading.active_count() > before:
            assert time.monotonic() < deadline, threading.enumerate()
            time.sleep(0.05)
        assert health_is_ok(svc.port)
    finally:
        svc.shutdown()
    err = capfd.readouterr().err
    assert '"POST /submit HTTP/1.1" 408 -' in err
    assert "Traceback" not in err


def test_service_response_head_is_pinned(service):
    # Status line, then Server, Date, Content-Type, Content-Length, in
    # this order: the bytes of a successful answer's head, but for the
    # Date value.
    with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
        sock.sendall(
            b"GET /health HTTP/1.1\r\nHost: localhost\r\n"
            b"Connection: close\r\n\r\n"
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[:2] == [
        "HTTP/1.1 200 OK",
        f"Server: repro-bgp-service/1 Python/{platform.python_version()}",
    ]
    assert re.fullmatch(
        r"Date: (Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
        r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
        r"\d\d:\d\d:\d\d GMT",
        lines[2],
    )
    assert lines[3:] == [
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    assert json.loads(body)["status"] == "ok"


def test_service_logs_request_lines_escaped_and_bounded(
    tmp_path, capfdbinary
):
    # A request line is the client's bytes: in the log its control and
    # non-ASCII bytes are escapes and its length is bounded, so no
    # request can drive the operator's terminal or flood the log.
    from repro.service.daemon import MAX_LOG_LINE

    config = service_config(tmp_path)
    config.quiet = False
    svc = CampaignService(config)
    svc.start()
    try:
        for target in (
            b"/\x1b[2J\x1b]0;pwned\x07",
            b"/" + b"a" * 60_000,
            b"/\xe9\\x41",
        ):
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=10
            ) as sock:
                sock.sendall(b"GET " + target + b" HTTP/1.1\r\n\r\n")
                with sock.makefile("rb") as stream:
                    status_line, _, _ = read_answer(stream)
            assert status_line.startswith("HTTP/1.1 404 ")
    finally:
        svc.shutdown()
    err = capfdbinary.readouterr().err
    assert [b for b in err if b < 0x20 and b != 0x0A] == []
    lines = err.splitlines()
    assert max(len(line) for line in lines) <= MAX_LOG_LINE
    assert b'http "GET /\\x1b[2J\\x1b]0;pwned\\x07 HTTP/1.1" 404 -' in lines[0]
    assert lines[1].startswith(b'[service] http "GET /aaa')
    assert lines[1].endswith(b"...[cut]") and len(lines[1]) == MAX_LOG_LINE
    # The client's own backslash is doubled, so it never reads as an
    # escape of the log's.
    assert b'"GET /\\xe9\\\\x41 HTTP/1.1" 404 -' in lines[2]


# ----------------------------------------------------------------------
# ETA: the queue's open trials at the mean executed trial's wall time
# ----------------------------------------------------------------------
def test_executor_eta_is_open_trials_at_the_mean_executed_wall(store):
    executor = executor_for(store, jobs=2)
    assert executor.eta_seconds(0) == 0.0
    assert executor.eta_seconds(3) is None  # nothing executed yet
    executor.executed, executor.busy_seconds = 4, 9.0
    assert executor.eta_seconds(3) == 3.4  # 3 x 2.25 s / 2 jobs
    assert executor.eta_seconds(0) == 0.0


def slow_walls(monkeypatch, seconds=4.0):
    """Every executed trial reports ``seconds`` more warm-up wall time,
    so the ETA does not hang on how fast the host simulates."""
    real = batch_mod.execute_trial

    def slow(*trial):
        result, record = real(*trial)
        wall = result.warmup_wall + seconds
        return dataclasses.replace(result, warmup_wall=wall), record

    monkeypatch.setattr(batch_mod, "execute_trial", slow)


@pytest.fixture()
def hand_driven(tmp_path, monkeypatch):
    """A started daemon whose executor thread returns at once: the test
    drains the queue itself, with ``service.executor.drain_once()``."""
    svc = CampaignService(service_config(tmp_path))
    monkeypatch.setattr(svc.executor, "drain", lambda stop=None: None)
    svc.start()
    try:
        yield svc
    finally:
        svc.shutdown()


def test_a_finished_ticket_has_no_eta_while_another_is_open(
    hand_driven, monkeypatch
):
    slow_walls(monkeypatch)
    hand_driven.config.batch_size = 1
    client = ServiceClient(f"http://127.0.0.1:{hand_driven.port}")
    first = client.submit(small_campaign(seeds=[1]).to_dict())
    second = client.submit(small_campaign(seeds=list(range(2, 14))).to_dict())
    assert hand_driven.executor.drain_once() == 1  # the first ticket's
    status = client.status(first["ticket"])
    assert (status["state"], status["eta_seconds"]) == ("done", 0.0)
    queue = client.queue_status()
    assert (queue["queue"]["pending"], queue["queue"]["running"]) == (12, 0)
    assert queue["eta_seconds"] == hand_driven.executor.eta_seconds(12)
    assert queue["eta_seconds"] >= 12 * 4.0
    assert client.status(second["ticket"])["eta_seconds"] == (
        queue["eta_seconds"]
    )


def test_a_terminally_failed_task_is_no_remaining_work(
    hand_driven, monkeypatch
):
    slow_walls(monkeypatch)
    client = ServiceClient(f"http://127.0.0.1:{hand_driven.port}")
    receipt = client.submit(small_campaign(seeds=[1, 2]).to_dict())
    # One payload rebuilds to another key, so its task fails for good.
    conn = sqlite3.connect(hand_driven.config.store)
    [(task_id, raw)] = conn.execute(
        "SELECT id, payload FROM queue ORDER BY id LIMIT 1"
    ).fetchall()
    payload = json.loads(raw)
    payload["seed"] += 100
    conn.execute(
        "UPDATE queue SET payload=? WHERE id=?",
        (json.dumps(payload), task_id),
    )
    conn.commit()
    conn.close()
    assert hand_driven.executor.drain_once() == 2
    queue = client.queue_status()
    assert queue["queue"] == {
        "pending": 0, "running": 0, "done": 1, "failed": 1,
    }
    assert queue["eta_seconds"] == 0.0
    status = client.status(receipt["ticket"])
    assert (status["state"], status["eta_seconds"]) == ("failed", 0.0)


def test_eta_is_null_while_work_is_open_and_none_has_executed(hand_driven):
    client = ServiceClient(f"http://127.0.0.1:{hand_driven.port}")
    receipt = client.submit(small_campaign(seeds=[1]).to_dict())
    assert client.queue_status()["eta_seconds"] is None
    assert client.status(receipt["ticket"])["eta_seconds"] is None


def test_health_has_no_live_block(service):
    health = ServiceClient(f"http://127.0.0.1:{service.port}").health()
    assert set(health) == {
        "status", "uptime_seconds", "submissions", "served_cached",
        "store", "executor", "pool",
    }


def test_service_rejects_submissions_while_draining(service):
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    service.request_shutdown()
    with pytest.raises(ServiceError) as err:
        client.submit(CAMPAIGN)
    assert err.value.status == 503
    assert client.health()["status"] == "draining"


@pytest.fixture()
def bound_socket():
    """A TCP socket bound to a free loopback port, not yet listening."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    try:
        yield sock
    finally:
        sock.close()


def test_client_maps_a_refused_connection(bound_socket):
    # Bound but not listening: the connect is refused.
    port = bound_socket.getsockname()[1]
    with pytest.raises(ServiceError) as err:
        ServiceClient(f"http://127.0.0.1:{port}", timeout=5).health()
    assert err.value.status == 0
    assert str(err.value).startswith("cannot reach service: [Errno 111] ")


def test_client_maps_a_daemon_that_never_answers(bound_socket):
    # The kernel completes the handshake from the backlog; nothing ever
    # reads the request or answers it.
    bound_socket.listen(1)
    port = bound_socket.getsockname()[1]
    with pytest.raises(ServiceError) as err:
        ServiceClient(f"http://127.0.0.1:{port}", timeout=0.3).health()
    assert (err.value.status, str(err.value)) == (
        0,
        "cannot reach service: timed out",
    )


def test_client_maps_an_error_without_a_json_body(bound_socket):
    bound_socket.listen(1)
    port = bound_socket.getsockname()[1]

    def answer_once():
        conn, _ = bound_socket.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                request += chunk
            conn.sendall(
                b"HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/plain\r\n"
                b"Content-Length: 5\r\nConnection: close\r\n\r\noops!"
            )

    server = threading.Thread(target=answer_once, daemon=True)
    server.start()
    with pytest.raises(ServiceError) as err:
        ServiceClient(f"http://127.0.0.1:{port}", timeout=10).queue_status()
    server.join(10)
    assert (err.value.status, err.value.message) == (
        502,
        "HTTP Error 502: Bad Gateway",
    )


@pytest.mark.parametrize(
    "answer, outcome",
    [
        (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
            b'{"status": "ok"}',
            {"status": "ok"},
        ),
        (b"", "Remote end closed connection without response"),
        (b"SSH-2.0-OpenSSH\r\n\r\n", "bad status line b'SSH-2.0-OpenSSH\\r\\n'"),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}",
            "answer body incomplete (2 of 50 bytes)",
        ),
        (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<html>",
            "a 200 answer whose body is not a JSON object",
        ),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: 16\r\n"
            b"Content-Length: 2\r\n\r\n"
            b'{"status": "ok"}',
            {"status": "ok"},
        ),
        (
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n{}",
            "bad header line b'no colon here\\r\\n'",
        ),
    ],
    ids=[
        "body-to-eof", "no-answer", "not-http", "short-body",
        "html-200", "first-content-length-wins", "colon-less-header",
    ],
)
def test_client_reads_an_answer_or_maps_it_to_status_0(
    bound_socket, answer, outcome
):
    # Without Content-Length the body runs to EOF; an answer that does
    # not parse is "cannot reach service", like a refused connection.
    bound_socket.listen(1)
    port = bound_socket.getsockname()[1]

    def answer_once():
        conn, _ = bound_socket.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                request += chunk
            conn.sendall(answer)

    server = threading.Thread(target=answer_once, daemon=True)
    server.start()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10)
    if isinstance(outcome, dict):
        assert client.health() == outcome
    else:
        with pytest.raises(ServiceError) as err:
            client.health()
        assert (err.value.status, str(err.value)) == (
            0,
            f"cannot reach service: {outcome}",
        )
    server.join(10)


def test_client_speaks_tls_only_to_an_https_url(service):
    # The plain daemon cannot complete a TLS handshake: status 0.
    with pytest.raises(ServiceError) as err:
        ServiceClient(f"https://127.0.0.1:{service.port}", timeout=10).health()
    assert err.value.status == 0
    assert str(err.value).startswith("cannot reach service: ")


def test_http_date_is_an_english_imf_fixdate():
    from repro.service.api import http_date

    assert http_date(0) == "Thu, 01 Jan 1970 00:00:00 GMT"
    assert http_date(951_825_600) == "Tue, 29 Feb 2000 12:00:00 GMT"


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
