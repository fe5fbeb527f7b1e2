"""Persistent experiment store: content-addressed trial caching + campaigns.

The biggest speedup available to a sweep that has already run is not
running it again.  This package provides:

* :mod:`repro.store.hashing` — the stable keyed-BLAKE2b content address
  of one trial's inputs (spec, built topology, seed, schema version):
  :func:`~repro.store.hashing.trial_key` over a :func:`topology_digest`
  the planner computes once per built topology, and :func:`spec_hash`,
  its one-trial form that digests the topology itself;
* :mod:`repro.store.result_store` — :class:`ResultStore`, an SQLite (WAL)
  trial cache with provenance; every driver takes one as ``store=``;
* :mod:`repro.store.campaign` — :class:`Campaign`, a declarative sweep
  grid that runs incrementally against a store: cached trials are
  skipped, failures retried, interruptions resumed, and the folded
  series equal an uncached run's;
* :mod:`repro.store.queue` — the durable work queue (lease/heartbeat/
  park rows in the same SQLite file) that the campaign service in
  :mod:`repro.service` drains.
"""

from repro.store.campaign import (
    Campaign,
    CampaignError,
    CampaignResult,
    CampaignStatus,
    campaign_keys,
    campaign_status,
    load_campaign_results,
    run_campaign,
)
from repro.store.queue import QUEUE_STATES, QueueTask
from repro.store.hashing import (
    SCHEMA_VERSION,
    canonical,
    spec_fingerprint,
    spec_hash,
    topology_digest,
)
from repro.store.result_store import (
    ResultStore,
    git_revision,
    trial_from_dict,
    trial_to_dict,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "CampaignStatus",
    "QUEUE_STATES",
    "QueueTask",
    "ResultStore",
    "SCHEMA_VERSION",
    "campaign_keys",
    "campaign_status",
    "canonical",
    "git_revision",
    "load_campaign_results",
    "run_campaign",
    "spec_fingerprint",
    "spec_hash",
    "topology_digest",
    "trial_from_dict",
    "trial_to_dict",
]
