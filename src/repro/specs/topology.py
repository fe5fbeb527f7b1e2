"""Topology blocks: named distributions and topology-kind builders.

The canonical home of the degree-distribution table the CLI's
``--distribution`` flag and campaign topology blocks share (it used to
live in ``repro.store.campaign``, which forced the CLI to import from
the store layer), plus the registry resolving a declarative topology
block — ``{"kind": "skewed", "nodes": 60, "distribution": "70-30"}`` —
into a per-seed factory.

Register a new kind with ``TOPOLOGY_KINDS.register``; campaign files
and the figure harness can then name it with no further code changes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

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

#: A registered kind: block dict -> (seed -> Topology) factory.
TopologyKindBuilder = Callable[[Dict[str, Any]], Callable[[int], Topology]]


def distribution_spec(name: str) -> SkewedDegreeSpec:
    """Resolve a named degree distribution (typo-rejecting)."""
    if name not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {name!r}; "
            f"choose from {sorted(DISTRIBUTIONS)}"
        )
    return DISTRIBUTIONS[name]()


def topology_factory(block: Dict[str, Any]) -> Callable[[int], Topology]:
    """Per-seed topology builder from a declarative parameter block."""
    kind = block.get("kind", "skewed")
    return TOPOLOGY_KINDS.get(kind)(block)


def _skewed_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    nodes = int(block.get("nodes", 60))
    dist = distribution_spec(block.get("distribution", "70-30"))
    return lambda seed: skewed_topology(nodes, dist, seed=seed)


def _internet_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    nodes = int(block.get("nodes", 60))
    return lambda seed: internet_like_topology(nodes, seed=seed)


def _multirouter_builder(block: Dict[str, Any]) -> Callable[[int], Topology]:
    spec = MultiRouterSpec(num_ases=int(block.get("nodes", 60)))
    return lambda seed: multi_router_topology(spec, seed=seed)


TOPOLOGY_KINDS.register("skewed", _skewed_builder)
TOPOLOGY_KINDS.register("internet", _internet_builder)
TOPOLOGY_KINDS.register("multirouter", _multirouter_builder)
