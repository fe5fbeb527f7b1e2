"""Topology blocks: named distributions and topology-kind builders.

The canonical home of the degree-distribution table the CLI's
``--distribution`` flag and campaign topology blocks share, plus the
:data:`TOPOLOGY_KINDS` table resolving a declarative topology block —
``{"kind": "skewed", "nodes": 60, "distribution": "70-30"}`` — into a
per-seed factory.  A block is typo-rejecting like a scheme dict
(:func:`validate_topology_block`), and an optional ``"seed"`` pins it:
the topology is built once at that seed and used for every trial seed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.specs.fields import integer, lookup
from repro.topology.degree import MIN_NODES, SkewedDegreeSpec
from repro.topology.graph import Topology
from repro.topology.multirouter import (
    MIN_ASES,
    MultiRouterSpec,
    multi_router_topology,
)
from repro.topology.skewed import skewed_topology

#: Named degree distributions usable in topology blocks and CLI flags.
DISTRIBUTIONS: Dict[str, Callable[[], SkewedDegreeSpec]] = {
    "70-30": SkewedDegreeSpec.paper_70_30,
    "50-50": SkewedDegreeSpec.paper_50_50,
    "85-15": SkewedDegreeSpec.paper_85_15,
    "50-50-dense": SkewedDegreeSpec.paper_50_50_dense,
}


class TopologyKind(NamedTuple):
    """One topology kind: the block keys it reads (beside the common
    ``kind`` and ``seed``), its block -> (seed -> Topology) builder and
    the fewest ``nodes`` its generator can build."""

    keys: Tuple[str, ...]
    build: Callable[[Dict[str, Any]], Callable[[int], Topology]]
    min_nodes: int


def distribution_spec(name: str) -> SkewedDegreeSpec:
    """Resolve a named degree distribution (typo-rejecting)."""
    return lookup(DISTRIBUTIONS, "distribution", name)()


def _kind(block: Dict[str, Any]) -> TopologyKind:
    return lookup(
        TOPOLOGY_KINDS, "topology kind", str(block.get("kind", "skewed"))
    )


def validate_topology_block(block: Dict[str, Any]) -> None:
    """Parse-time validation of a topology block; builds nothing.

    Rejects an unknown kind, keys the kind does not read, an unknown
    distribution, a non-integer ``nodes`` / ``seed`` and fewer ``nodes``
    than the kind's generator can build — a typo must not silently
    build a different topology, nor fail only when the grid runs.
    """
    kind = _kind(block)
    known = {"kind", "seed", *kind.keys}
    unknown = set(block) - known
    if unknown:
        raise ValueError(
            f"unknown topology keys {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    nodes = integer(block.get("nodes", 60), "nodes")
    integer(block.get("seed", 0), "seed")
    if nodes < kind.min_nodes:
        raise ValueError(
            f"nodes must be at least {kind.min_nodes} for topology kind "
            f"{block.get('kind', 'skewed')!r}, got {nodes}"
        )
    if "distribution" in block:
        distribution_spec(block["distribution"])


def topology_factory(block: Dict[str, Any]) -> Callable[[int], Topology]:
    """Per-seed topology builder from a declarative parameter block.

    A pinned block (``"seed"``) builds its one topology here and the
    factory returns it for every trial seed.
    """
    validate_topology_block(block)
    factory = _kind(block).build(block)
    if "seed" in block:
        pinned = factory(block["seed"])
        return lambda seed: pinned
    return factory


def _skewed_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    nodes = block.get("nodes", 60)
    dist = distribution_spec(block.get("distribution", "70-30"))
    return lambda seed: skewed_topology(nodes, dist, seed=seed)


def _internet_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    from repro.topology.internet import internet_like_topology

    nodes = block.get("nodes", 60)
    return lambda seed: internet_like_topology(nodes, seed=seed)


def _multirouter_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    spec = MultiRouterSpec(num_ases=block.get("nodes", 60))
    return lambda seed: multi_router_topology(spec, seed=seed)


#: Every topology kind a topology block's ``kind`` can name.
TOPOLOGY_KINDS: Dict[str, TopologyKind] = {
    "skewed": TopologyKind(
        ("nodes", "distribution"), _skewed_builder, MIN_NODES
    ),
    "internet": TopologyKind(("nodes",), _internet_builder, MIN_NODES),
    "multirouter": TopologyKind(("nodes",), _multirouter_builder, MIN_ASES),
}
