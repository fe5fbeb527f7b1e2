"""Declarative blocks for the non-MRAI spec pieces.

* **queue disciplines** — a registry naming every discipline the
  simulator implements, so scheme dicts are checked at parse time
  instead of when the first ``BGPConfig`` is built;
* **damping blocks** — ``{"half_life": 4.0, ...}`` <->
  :class:`~repro.bgp.damping.DampingConfig`;
* **routing-policy blocks** — ``{"kind": "shortest-path"}`` or
  ``{"kind": "gao-rexford", ...}`` <->
  :class:`~repro.bgp.policy.RoutingPolicy`.  Gao-Rexford relationships
  come either inline (``"relationships": [[a, b, rel], ...]``, fully
  self-contained) or inferred from the topology
  (``"infer": "hierarchical"`` / ``"degree"``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.bgp.damping import DampingConfig
from repro.bgp.policy import (
    ASRelationships,
    GaoRexfordPolicy,
    RoutingPolicy,
    ShortestPathPolicy,
    infer_relationships,
    infer_relationships_hierarchical,
)
from repro.specs.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.graph import Topology

# ---------------------------------------------------------------------------
# Queue disciplines
# ---------------------------------------------------------------------------
QUEUE_DISCIPLINES = Registry("queue discipline")
QUEUE_DISCIPLINES.register("fifo", "process updates strictly in order")
QUEUE_DISCIPLINES.register(
    "dest_batch", "the paper's per-destination batching (Sec 4.4)"
)
QUEUE_DISCIPLINES.register(
    "dest_batch_wf", "per-destination batching, withdrawals first (Sec 5)"
)
QUEUE_DISCIPLINES.register(
    "tcp_batch", "router-style fixed-size TCP-buffer batching"
)


def check_queue_discipline(name: str) -> str:
    """Validate a scheme dict's ``queue`` value at parse time."""
    if name not in QUEUE_DISCIPLINES:
        raise ValueError(
            f"unknown queue discipline {name!r}; "
            f"choose from {QUEUE_DISCIPLINES.names()}"
        )
    return name


# ---------------------------------------------------------------------------
# Damping blocks
# ---------------------------------------------------------------------------
_DAMPING_FIELDS = tuple(f.name for f in dataclasses.fields(DampingConfig))


def build_damping(block: Dict[str, Any]) -> DampingConfig:
    """A :class:`DampingConfig` from its declarative dict."""
    if not isinstance(block, dict):
        raise ValueError(
            f"damping must be a parameter dict or null, got {block!r}"
        )
    unknown = set(block) - set(_DAMPING_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown damping keys {sorted(unknown)}; "
            f"known: {sorted(_DAMPING_FIELDS)}"
        )
    kwargs = {}
    for key, value in block.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"damping.{key} must be a number, got {value!r}"
            )
        kwargs[key] = float(value)
    return DampingConfig(**kwargs)  # __post_init__ validates the values


def damping_to_block(config: DampingConfig) -> Dict[str, Any]:
    return {name: getattr(config, name) for name in _DAMPING_FIELDS}


# ---------------------------------------------------------------------------
# Routing-policy blocks
# ---------------------------------------------------------------------------
POLICY_BLOCKS = Registry("routing policy")


class _PolicyBlockEntry:
    """One policy kind: allowed keys, builder, optional serializer."""

    def __init__(self, keys, build, serialize=None, policy_types=(),
                 needs_topology=lambda block: False, validate=None):
        self.keys = frozenset(keys) | {"kind"}
        self.build = build
        self.serialize = serialize
        self.policy_types = tuple(policy_types)
        self.needs_topology = needs_topology
        self.validate = validate


def validate_policy_block(block: Dict[str, Any]) -> None:
    """Parse-time checks for a policy block, without a topology."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ValueError(
            f"policy must be a dict with a 'kind' key or null, got {block!r}"
        )
    entry = POLICY_BLOCKS.get(block["kind"])
    unknown = set(block) - entry.keys
    if unknown:
        raise ValueError(
            f"unknown policy keys {sorted(unknown)} for kind "
            f"{block['kind']!r}; known: {sorted(entry.keys)}"
        )
    if entry.validate is not None:
        entry.validate(block)


def build_policy(
    block: Dict[str, Any], topology: Optional["Topology"] = None
) -> RoutingPolicy:
    """A :class:`RoutingPolicy` from its declarative block."""
    validate_policy_block(block)
    entry = POLICY_BLOCKS.get(block["kind"])
    if topology is None and entry.needs_topology(block):
        raise ValueError(
            f"policy kind {block['kind']!r} with inferred relationships "
            f"needs a topology to resolve; pass topology=... or inline "
            f"'relationships'"
        )
    return entry.build(block, topology)


def policy_to_block(policy: RoutingPolicy) -> Dict[str, Any]:
    """The declarative block for ``policy`` (inverse of build)."""
    from repro.specs.serialize import SpecSerializationError

    for name in POLICY_BLOCKS:
        entry = POLICY_BLOCKS.get(name)
        if entry.serialize is not None and type(policy) in entry.policy_types:
            return entry.serialize(policy)
    raise SpecSerializationError(
        f"no registered policy block serializes "
        f"{type(policy).__module__}.{type(policy).__qualname__}; "
        f"register it in POLICY_BLOCKS to make this spec declarative"
    )


def policy_needs_topology(block: Dict[str, Any]) -> bool:
    if not isinstance(block, dict) or "kind" not in block:
        return False
    entry = POLICY_BLOCKS.get(block["kind"])
    return entry.needs_topology(block)


POLICY_BLOCKS.register(
    "shortest-path",
    _PolicyBlockEntry(
        keys=(),
        build=lambda block, topology: ShortestPathPolicy(),
        serialize=lambda policy: {"kind": "shortest-path"},
        policy_types=(ShortestPathPolicy,),
    ),
)

_INFER_MODES = ("hierarchical", "degree")


def _check_gao_rexford(block: Dict[str, Any]) -> None:
    if ("relationships" in block) == ("infer" in block):
        raise ValueError(
            "gao-rexford policy needs exactly one of 'relationships' "
            "(inline [[a, b, rel], ...] triples) or 'infer' "
            f"({'/'.join(_INFER_MODES)})"
        )
    if "infer" in block and block["infer"] not in _INFER_MODES:
        raise ValueError(
            f"unknown infer mode {block['infer']!r}; "
            f"choose from {sorted(_INFER_MODES)}"
        )


def _build_gao_rexford(
    block: Dict[str, Any], topology: Optional["Topology"]
) -> GaoRexfordPolicy:
    if "relationships" in block:
        rels = ASRelationships.from_items(
            tuple(item) for item in block["relationships"]
        )
        return GaoRexfordPolicy(rels)
    assert topology is not None  # guaranteed by build_policy
    if block["infer"] == "hierarchical":
        rels = infer_relationships_hierarchical(topology)
    else:
        ratio = block.get("peer_degree_ratio", 1.5)
        rels = infer_relationships(topology, peer_degree_ratio=float(ratio))
    return GaoRexfordPolicy(rels)


POLICY_BLOCKS.register(
    "gao-rexford",
    _PolicyBlockEntry(
        keys=("relationships", "infer", "peer_degree_ratio"),
        build=_build_gao_rexford,
        validate=_check_gao_rexford,
        serialize=lambda policy: {
            "kind": "gao-rexford",
            "relationships": [
                list(item) for item in policy.relationships.items()
            ],
        },
        policy_types=(GaoRexfordPolicy,),
        needs_topology=lambda block: "infer" in block,
    ),
)
