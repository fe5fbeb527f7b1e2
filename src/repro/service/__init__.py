"""The campaign service: a daemon serving cached convergence results.

Trials in this repo are pure functions of ``(topology, spec, seed)``
with content-addressed caching (:mod:`repro.store`) and a persistent
warm worker pool (:mod:`repro.core.parallel`) — exactly the ingredients
of a results-serving backend.  This package assembles them into one:

* :mod:`repro.service.submission` — turns a submitted campaign grid or
  single spec into per-trial content keys, splits cache hits from cold
  trials, and enqueues the cold ones under a ticket;
* :mod:`repro.service.executor` — the drain loop: lease queued trials,
  rebuild their specs/topologies, run them on the warm pool with
  digest-affinity batching, bank results, retry a failing trial inside
  its batch and park what exhausts the attempt budget;
* :mod:`repro.service.daemon` — :class:`CampaignService`, wiring the
  HTTP API (:mod:`repro.service.api`), the executor thread and graceful
  SIGTERM/SIGINT drain together;
* :mod:`repro.service.client` — a thin stdlib HTTP client
  (:class:`ServiceClient`) mirroring the API 1:1.

CLI entry points: ``repro-bgp serve`` / ``submit`` / ``result`` /
``queue status`` / ``store stats``.  See ``docs/SERVICE.md``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.executor import QueueExecutor
from repro.service.submission import (
    SubmissionReceipt,
    plan_submission,
    submission_campaign,
    ticket_results,
    ticket_status,
)

__all__ = [
    "CampaignService",
    "QueueExecutor",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SubmissionReceipt",
    "plan_submission",
    "submission_campaign",
    "ticket_results",
    "ticket_status",
]
