"""Topology blocks: named distributions and topology-kind builders.

The canonical home of the degree-distribution table the CLI's
``--distribution`` flag and campaign topology blocks share, plus the
registry resolving a declarative topology block — ``{"kind": "skewed",
"nodes": 60, "distribution": "70-30"}`` — into a per-seed factory.  A
block is typo-rejecting like a scheme dict
(:func:`validate_topology_block`), and an optional ``"seed"`` pins it:
the topology is built once at that seed and used for every trial seed.

Register a new kind with ``TOPOLOGY_KINDS.register(name, (keys,
builder))``; campaign files and the figure harness can then name it with
no further code changes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.specs.mrai import _integer
from repro.specs.registry import Registry
from repro.topology.degree import SkewedDegreeSpec
from repro.topology.graph import Topology
from repro.topology.internet import internet_like_topology
from repro.topology.multirouter import MultiRouterSpec, multi_router_topology
from repro.topology.skewed import skewed_topology

#: Named degree distributions usable in topology blocks and CLI flags.
DISTRIBUTIONS: Dict[str, Callable[[], SkewedDegreeSpec]] = {
    "70-30": SkewedDegreeSpec.paper_70_30,
    "50-50": SkewedDegreeSpec.paper_50_50,
    "85-15": SkewedDegreeSpec.paper_85_15,
    "50-50-dense": SkewedDegreeSpec.paper_50_50_dense,
}

TOPOLOGY_KINDS = Registry("topology kind")

#: A registered kind: the block keys it reads (beside the common
#: ``kind`` and ``seed``) and its block -> (seed -> Topology) builder.
TopologyKind = Tuple[
    Tuple[str, ...], Callable[[Dict[str, Any]], Callable[[int], Topology]]
]


def distribution_spec(name: str) -> SkewedDegreeSpec:
    """Resolve a named degree distribution (typo-rejecting)."""
    if name not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {name!r}; "
            f"choose from {sorted(DISTRIBUTIONS)}"
        )
    return DISTRIBUTIONS[name]()


def _kind(block: Dict[str, Any]) -> TopologyKind:
    return TOPOLOGY_KINDS.get(str(block.get("kind", "skewed")))


def validate_topology_block(block: Dict[str, Any]) -> None:
    """Parse-time validation of a topology block; builds nothing.

    Rejects an unknown kind, keys the kind does not read, an unknown
    distribution and a non-integer ``nodes`` / ``seed`` — a typo must
    not silently build a different topology.
    """
    keys, _builder = _kind(block)
    known = {"kind", "seed", *keys}
    unknown = set(block) - known
    if unknown:
        raise ValueError(
            f"unknown topology keys {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    for key in ("nodes", "seed"):
        _integer(block, key, 0)
    if "distribution" in block:
        distribution_spec(block["distribution"])


def topology_factory(block: Dict[str, Any]) -> Callable[[int], Topology]:
    """Per-seed topology builder from a declarative parameter block.

    A pinned block (``"seed"``) builds its one topology here and the
    factory returns it for every trial seed.
    """
    validate_topology_block(block)
    _keys, builder = _kind(block)
    factory = builder(block)
    if "seed" in block:
        pinned = factory(block["seed"])
        return lambda seed: pinned
    return factory


def _skewed_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    nodes = block.get("nodes", 60)
    dist = distribution_spec(block.get("distribution", "70-30"))
    return lambda seed: skewed_topology(nodes, dist, seed=seed)


def _internet_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    nodes = block.get("nodes", 60)
    return lambda seed: internet_like_topology(nodes, seed=seed)


def _multirouter_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    spec = MultiRouterSpec(num_ases=block.get("nodes", 60))
    return lambda seed: multi_router_topology(spec, seed=seed)


TOPOLOGY_KINDS.register("skewed", (("nodes", "distribution"), _skewed_builder))
TOPOLOGY_KINDS.register("internet", (("nodes",), _internet_builder))
TOPOLOGY_KINDS.register("multirouter", (("nodes",), _multirouter_builder))
