"""Declarative blocks for the non-MRAI spec pieces.

* **damping blocks** — ``{"half_life": 4.0, ...}`` <->
  :class:`~repro.bgp.damping.DampingConfig`;
* **routing-policy blocks** — ``{"kind": "shortest-path"}`` or
  ``{"kind": "gao-rexford", ...}`` <->
  :class:`~repro.bgp.policy.RoutingPolicy`.  Gao-Rexford relationships
  come either inline (``"relationships": [[a, b, rel], ...]``, fully
  self-contained) or inferred from the topology
  (``"infer": "hierarchical"``).
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
    infer_relationships_hierarchical,
)
from repro.specs.fields import lookup, number

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.graph import Topology

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
    kwargs = {
        key: number(value, f"damping.{key}") for key, value in block.items()
    }
    return DampingConfig(**kwargs)  # __post_init__ validates the values


def damping_to_block(config: DampingConfig) -> Dict[str, Any]:
    return {name: getattr(config, name) for name in _DAMPING_FIELDS}


# ---------------------------------------------------------------------------
# Routing-policy blocks
# ---------------------------------------------------------------------------
class PolicyBlock:
    """One policy kind: allowed keys, builder and inverse.

    ``serialize`` is the inverse :func:`repro.specs.serialize.spec_to_dict`
    applies to policies of exactly ``policy_type``.
    """

    def __init__(self, keys, build, policy_type=None, serialize=None,
                 needs_topology=lambda block: False, validate=None):
        self.keys = frozenset(keys) | {"kind"}
        self.build = build
        self.policy_type = policy_type
        self.serialize = serialize
        self.needs_topology = needs_topology
        self.validate = validate


def _entry(block: Dict[str, Any]) -> PolicyBlock:
    return lookup(POLICY_BLOCKS, "routing policy", block["kind"])


def validate_policy_block(block: Dict[str, Any]) -> None:
    """Parse-time checks for a policy block, without a topology."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ValueError(
            f"policy must be a dict with a 'kind' key or null, got {block!r}"
        )
    entry = _entry(block)
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
    entry = _entry(block)
    if topology is None and entry.needs_topology(block):
        raise ValueError(
            f"policy kind {block['kind']!r} with inferred relationships "
            f"needs a topology to resolve; pass topology=... or inline "
            f"'relationships'"
        )
    return entry.build(block, topology)


def policy_needs_topology(block: Dict[str, Any]) -> bool:
    if not isinstance(block, dict) or "kind" not in block:
        return False
    return _entry(block).needs_topology(block)


_INFER_MODES = ("hierarchical",)


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
    return GaoRexfordPolicy(infer_relationships_hierarchical(topology))


#: Every routing-policy kind a scheme dict's ``policy`` block can name.
POLICY_BLOCKS: Dict[str, PolicyBlock] = {
    "shortest-path": PolicyBlock(
        keys=(),
        build=lambda block, topology: ShortestPathPolicy(),
        policy_type=ShortestPathPolicy,
        serialize=lambda policy: {"kind": "shortest-path"},
    ),
    "gao-rexford": PolicyBlock(
        keys=("relationships", "infer"),
        build=_build_gao_rexford,
        validate=_check_gao_rexford,
        policy_type=GaoRexfordPolicy,
        serialize=lambda policy: {
            "kind": "gao-rexford",
            "relationships": [
                list(item) for item in policy.relationships.items()
            ],
        },
        needs_topology=lambda block: "infer" in block,
    ),
}
