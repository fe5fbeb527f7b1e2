"""Turning submitted work into cache hits and queued cold trials.

A submission is either a full campaign grid (the same JSON document
``repro-bgp campaign run`` takes) or a single spec
(``{"topology": block, "scheme": {...}, "seed": N}``), which is
normalized into a one-cell campaign so every downstream path — content
keys, queueing, folding — is the campaign path.

Planning is where the serving economics happen: the grid is expanded to
keyed :class:`~repro.core.batch.PlannedTrial` records via the same
:func:`repro.store.campaign.campaign_keys` expansion the batch runner
uses, each key is looked up in the backend, and only the misses are
enqueued.  A warm resubmission therefore touches zero simulation; a
cold one returns a ticket whose keys the executor fills in.

Queue payloads are *declarative*: the topology parameter block plus the
fully-explicit spec dict from :func:`repro.specs.spec_to_dict` (resolved
adaptive/theory schemes serialize with their levels made explicit), so
any executor process can rebuild the exact trial and arrive at the same
content hash — which it verifies before running.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.specs.serialize import spec_to_dict
from repro.store.campaign import (
    Campaign,
    CampaignError,
    campaign_keys,
    fold_stored,
)
from repro.store.result_store import ResultStore

#: ExperimentSpec's own default; a single-spec submission without an
#: explicit failure_fraction lands on the same spec a direct
#: ``build_spec(scheme)`` would.
_DEFAULT_FAILURE_FRACTION = 0.05


def submission_campaign(data: Dict[str, Any]) -> Campaign:
    """Normalize a submission body into a :class:`Campaign`.

    A body with ``schemes`` is a campaign document and parses exactly as
    ``campaign run`` would.  A body with ``scheme`` (singular) is a
    single spec and wraps into the document of a one-cell grid whose
    only axis value is the scheme's own failure fraction — parsed like
    any campaign document, so its trial keys are identical to what a
    full campaign containing that cell would produce.
    """
    if "schemes" in data:
        return Campaign.from_dict(data)
    if "scheme" not in data:
        raise ValueError(
            "submission must carry either 'schemes' (campaign grid) "
            "or 'scheme' (single spec)"
        )
    scheme = dict(data["scheme"])
    if "topology" not in data:
        raise ValueError("single-spec submission requires 'topology'")
    if "seeds" not in data and "seed" not in data:
        raise ValueError(
            "single-spec submission requires 'seed' or 'seeds'"
        )
    x = scheme.get("failure_fraction", _DEFAULT_FAILURE_FRACTION)
    return Campaign.from_dict(
        {
            "name": data.get("name", "adhoc"),
            "topology": data["topology"],
            "schemes": {"spec": scheme},
            "axis": {"name": "failure_fraction", "values": [x]},
            "seeds": data["seeds"] if "seeds" in data else [data["seed"]],
        }
    )


@dataclass
class SubmissionReceipt:
    """What planning one submission decided, and the ticket to poll."""

    ticket: str
    name: str
    total: int
    cached: int
    enqueued: int
    deduplicated: int
    keys: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.cached == self.total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ticket": self.ticket,
            "name": self.name,
            "total": self.total,
            "cached": self.cached,
            "enqueued": self.enqueued,
            "deduplicated": self.deduplicated,
            "complete": self.complete,
            "keys": list(self.keys),
        }

    def summary(self) -> str:
        pct = round(100.0 * self.cached / self.total) if self.total else 100
        return (
            f"ticket {self.ticket}: campaign {self.name} — "
            f"{self.total} trials, {self.cached} cached ({pct}%), "
            f"{self.enqueued} enqueued, {self.deduplicated} deduplicated"
        )


def plan_submission(
    campaign: Campaign,
    backend: ResultStore,
    ticket: Optional[str] = None,
) -> SubmissionReceipt:
    """Split a grid into cache hits and enqueued cold trials.

    Every trial key is checked against the backend; misses are enqueued
    under a fresh ticket (an open task for the same key — e.g. from a
    concurrent identical submission — deduplicates instead of queueing
    twice).  The ticket's ordered key list is persisted so status and
    folding survive daemon restarts.  The grid is planned with its
    schemes in label order — the order of the campaign document as the
    ticket persists it (JSON with sorted keys) — so the persisted keys
    line up with the persisted document and :func:`ticket_results` can
    fold them without planning again.
    """
    ticket = ticket or os.urandom(6).hex()
    campaign = dataclasses.replace(
        campaign, schemes=dict(sorted(campaign.schemes.items()))
    )
    keys: List[str] = []
    cached = enqueued = deduplicated = 0
    for trial in campaign_keys(campaign):
        keys.append(trial.key)
        if backend.has(trial.key):
            cached += 1
            continue
        payload = {
            "topology": dict(campaign.topology),
            "scheme": spec_to_dict(trial.spec),
            "seed": trial.seed,
        }
        _task_id, created = backend.enqueue(trial.key, payload, ticket=ticket)
        if created:
            enqueued += 1
        else:
            deduplicated += 1
    backend.record_ticket(
        ticket, campaign.name, keys, campaign=campaign.to_dict()
    )
    return SubmissionReceipt(
        ticket=ticket,
        name=campaign.name,
        total=len(keys),
        cached=cached,
        enqueued=enqueued,
        deduplicated=deduplicated,
        keys=keys,
    )


def ticket_status(ticket: str, backend: ResultStore) -> Dict[str, Any]:
    """Progress of one ticket, derived purely from persistent state.

    ``state`` is ``done`` when every key is banked, ``failed`` when at
    least one missing key's queue task is terminally failed (nothing
    will fill it without a resubmit), else ``running``.  The daemon
    layers live executor telemetry (ETA, rates) on top of this.
    """
    info = backend.ticket_info(ticket)
    if info is None:
        raise KeyError(f"unknown ticket {ticket!r}")
    keys = info["keys"]
    queue_states = backend.queue_states_for(keys)
    done = failed = pending = running = 0
    failures: List[Dict[str, Any]] = []
    for key in keys:
        if backend.has(key):
            done += 1
            continue
        entry = queue_states.get(key)
        state = entry["state"] if entry else "missing"
        if state == "failed":
            failed += 1
            failures.append(
                {
                    "key": key,
                    "attempts": entry["attempts"],
                    "error": entry["error"],
                }
            )
        elif state == "running":
            running += 1
        else:  # pending, or missing = never queued (counts as pending)
            pending += 1
    if done == len(keys):
        state = "done"
    elif failed:
        state = "failed"
    else:
        state = "running" if running else "pending"
    return {
        "ticket": ticket,
        "name": info["name"],
        "created_utc": info["created_utc"],
        "state": state,
        "total": len(keys),
        "done": done,
        "running": running,
        "pending": pending,
        "failed": failed,
        "failures": failures,
    }


def ticket_results(ticket: str, backend: ResultStore) -> Dict[str, Any]:
    """Fold a completed ticket's campaign into JSON-ready series.

    Folds the ordered keys persisted with the ticket — what
    :func:`ticket_status` reads — against the campaign document
    persisted beside them (:func:`repro.store.campaign.fold_stored`), so
    it plans nothing (no topology is built or digested unless a scheme
    is topology-resolved) and works across daemon restarts and from any
    process sharing the store.  Raises ``KeyError`` for unknown tickets
    and ``ValueError`` while trials are still missing (callers should
    poll status first) or when keys and document disagree on the size
    of the grid.
    """
    info = backend.ticket_info(ticket)
    if info is None:
        raise KeyError(f"unknown ticket {ticket!r}")
    if not info.get("campaign"):
        raise ValueError(
            f"ticket {ticket} predates campaign-document tickets; "
            f"resubmit to fold results"
        )
    campaign = Campaign.from_dict(info["campaign"])
    try:
        series_list, _points = fold_stored(campaign, backend, info["keys"])
    except CampaignError as exc:
        raise ValueError(str(exc)) from exc
    return {
        "ticket": ticket,
        "name": campaign.name,
        "axis": campaign.axis,
        "seeds": list(campaign.seeds),
        "series": [
            {
                "label": series.label,
                "x_name": series.x_name,
                "points": [
                    {
                        "x": point.x,
                        "delay": point.delay,
                        "messages": point.messages,
                        "unreachable": point.unreachable,
                    }
                    for point in series.points
                ],
            }
            for series in series_list
        ],
    }
