"""Content-addressed cache keys for trials.

A trial is a pure function of ``(topology, spec, seed)`` — that is the
determinism contract :mod:`repro.core.parallel` already relies on to make
``jobs=N`` bit-identical to serial.  This module turns the same three
inputs into a *stable name*: a keyed-BLAKE2b hash over a canonical JSON
encoding of the spec, a digest of the fully built topology, the trial
seed and a schema version.  Two runs that would produce the same
:class:`~repro.core.experiment.TrialResult` hash to the same key; any
input change — an MRAI ladder value, one link delay, the seed — changes
the key, so a stale cache entry can never be returned for a new
configuration.

The derivation mirrors :func:`repro.sim.rng.derive_seed`: keyed BLAKE2b,
so keys are stable across processes and Python versions
(``PYTHONHASHSEED``-immune) and namespaced away from every other BLAKE2b
use in the codebase by the key string.

Bump :data:`SCHEMA_VERSION` whenever simulation semantics change in a way
that alters results for the same inputs (new event ordering, changed
measurement protocol, ...) — old store entries then miss instead of
poisoning new runs.  The golden tests pin hash vectors so an *accidental*
key change cannot slip through.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.experiment import ExperimentSpec
    from repro.topology.graph import Topology

#: Version of the (simulation semantics, TrialResult schema) pair the
#: hash binds to.  Bumping it invalidates every existing store entry.
#: v2: specs fingerprint via their declarative dict (repro.specs), so
#: equal-meaning construction paths share keys; see docs/STORAGE.md.
SCHEMA_VERSION = 2

#: BLAKE2b key namespacing trial-cache hashes (like the named random
#: streams, the key makes collisions with other derivations impossible).
_HASH_KEY = b"repro-store-trial"


def canonical(value: Any) -> Any:
    """A JSON-able form of ``value`` that is stable across processes.

    ``value`` is declarative data — what :func:`repro.specs.spec_to_dict`
    and :func:`repro.topology.serialize.topology_to_dict` emit: scalars
    pass through, lists and tuples recurse, a set becomes its sorted
    elements, and a mapping becomes its ``[key, value]`` pairs sorted by
    key, so iteration order never reaches the hash.  Anything else is
    not declarative and raises ``TypeError``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [canonical(v) for v in value]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda p: json.dumps(p[0], sort_keys=True))
    raise TypeError(
        f"cannot hash a {type(value).__qualname__}: only declarative "
        f"data (dicts, lists, sets, scalars) has a stable encoding"
    )


def _canonical_json(value: Any) -> str:
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def topology_digest(topology: "Topology") -> str:
    """A BLAKE2b digest over the topology's full serialized content.

    Hashing the *built* topology (every router position, every link
    delay) rather than the factory's parameters means the key is correct
    even for hand-edited or file-loaded topologies, and two factories
    that produce the same graph share cache entries.
    """
    from repro.topology.serialize import topology_to_dict

    payload = _canonical_json(topology_to_dict(topology))
    return hashlib.blake2b(
        payload.encode("utf-8"), key=_HASH_KEY, digest_size=16
    ).hexdigest()


def trial_fingerprint(
    spec: "ExperimentSpec", digest: str, seed: int
) -> Dict[str, Any]:
    """The canonical pre-image of :func:`trial_key` (stored for audits).

    ``digest`` is the :func:`topology_digest` of the trial's built
    topology, which a planner computes once per topology however many
    trials share it.  The spec enters as its declarative dict
    (:func:`repro.specs.spec_to_dict`), so every construction path that
    means the same experiment — CLI flags, a campaign file, a figure
    scheme set, a theory ladder resolved to its dynamic levels — shares
    one key.  A spec with no declarative form raises
    :class:`repro.specs.serialize.SpecSerializationError`: it has no
    key, so the store cannot bank it.
    """
    from repro.specs.serialize import spec_to_dict

    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "spec": canonical(spec_to_dict(spec)),
        "topology": digest,
    }


def trial_key(spec: "ExperimentSpec", digest: str, seed: int) -> str:
    """The content-addressed store key for one trial.

    64 hex characters (256-bit keyed BLAKE2b) over the canonical JSON of
    :func:`trial_fingerprint` — collision-free for all practical purposes,
    stable forever unless :data:`SCHEMA_VERSION` is bumped.
    """
    from repro.obs.spans import span

    with span("store.spec_hash"):
        payload = json.dumps(
            trial_fingerprint(spec, digest, seed),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), key=_HASH_KEY, digest_size=32
        ).hexdigest()


def spec_fingerprint(
    spec: "ExperimentSpec", topology: "Topology", seed: int
) -> Dict[str, Any]:
    """:func:`trial_fingerprint` of one trial given its built topology."""
    return trial_fingerprint(spec, topology_digest(topology), seed)


def spec_hash(
    spec: "ExperimentSpec", topology: "Topology", seed: int
) -> str:
    """:func:`trial_key` of one trial given its built topology."""
    return trial_key(spec, topology_digest(topology), seed)
